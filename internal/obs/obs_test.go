package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestNilObserverIsInert drives the whole span API through a nil
// observer: nothing may panic and nothing may be recorded.
func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	sc := o.BeginInvocation(1, "k")
	if sc.Enabled() {
		t.Fatal("scope of nil observer reports enabled")
	}
	child := sc.Span("profile")
	grand := child.Child("step")
	grand.End()
	child.Event("x")
	child.End()
	sc.Event("y", Num("n", 1))
	sc.End()
	o.RecordInvocation(InvocationStats{Seconds: 1})
	o.RecordBreakerTransition(1)
	if o.Registry() != nil {
		t.Fatal("nil observer has a registry")
	}
}

func TestObserverSpanTree(t *testing.T) {
	ring := NewRingSink(16)
	o := New(ring, nil)
	sc := o.BeginInvocation(42, "bfs")
	if !sc.Enabled() || sc.InvocationID() != 42 {
		t.Fatalf("scope not live: %+v", sc)
	}
	prof := sc.Span("profile")
	step := prof.Child("profile-step")
	step.End(Num("step", 1))
	prof.End(Num("steps", 1))
	search := sc.Span("alpha-search")
	search.EndExplain(&Explain{Alpha: 0.5, Category: "c"})
	sc.Event("gpu-retry", Num("attempt", 1))
	sc.End(Num("alpha", 0.5))

	spans := ring.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Invocation != 42 {
			t.Errorf("span %q invocation = %d, want 42", sp.Name, sp.Invocation)
		}
		if sp.Kernel != "bfs" {
			t.Errorf("span %q kernel = %q, want bfs", sp.Name, sp.Kernel)
		}
	}
	root := byName["invocation"]
	if root.Parent != 0 {
		t.Errorf("root has parent %d", root.Parent)
	}
	if byName["profile"].Parent != root.ID {
		t.Error("profile span not parented to root")
	}
	if byName["profile-step"].Parent != byName["profile"].ID {
		t.Error("profile-step not parented to profile")
	}
	if byName["alpha-search"].Explain == nil {
		t.Error("alpha-search span lost its explain record")
	}
	if ev := byName["gpu-retry"]; ev.Kind != KindInstant || ev.Parent != root.ID {
		t.Errorf("instant event wrong: %+v", ev)
	}
}

// TestSpanAttrsByValue pins the value semantics of span attributes:
// the sink receives a copy, so reusing the caller's slice after End
// changes nothing it stored; at most MaxAttrs are kept; and span times
// are monotone in emission order on the observer's clock.
func TestSpanAttrsByValue(t *testing.T) {
	ring := NewRingSink(8)
	o := New(ring, nil)
	sc := o.BeginInvocation(1, "k")
	attrs := []Attr{Num("a", 1), Str("b", "x"), Num("c", 3), Str("d", "y"), Num("e", 5)}
	sc.Span("wide").End(attrs...)
	attrs[0] = Num("a", -1)
	sc.Event("one", Num("n", 7))
	sc.End()

	spans := ring.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wide := spans[0].Attrs
	got := wide.List()
	if wide.Len() != MaxAttrs || len(got) != MaxAttrs {
		t.Fatalf("wide span keeps %d attributes, want %d", wide.Len(), MaxAttrs)
	}
	for i, a := range got {
		want := []Attr{Num("a", 1), Str("b", "x"), Num("c", 3), Str("d", "y")}[i]
		if a != want {
			t.Errorf("attribute %d = %+v, want %+v", i, a, want)
		}
	}
	if ev := spans[1].Attrs.List(); len(ev) != 1 || ev[0] != Num("n", 7) {
		t.Errorf("event attributes = %+v, want [n=7]", ev)
	}
	if spans[2].Attrs.Len() != 0 {
		t.Errorf("root span has %d attributes, want 0", spans[2].Attrs.Len())
	}
	for i, sp := range spans {
		if sp.End.Before(sp.Start) {
			t.Errorf("span %q ends before it starts", sp.Name)
		}
		if i > 0 && sp.End.Before(spans[i-1].End) {
			t.Errorf("span %q ends before the span emitted ahead of it", sp.Name)
		}
	}
}

func TestRingSinkWraps(t *testing.T) {
	for _, tc := range []struct{ capacity, emitted int }{
		{3, 5},
		{3, 2},
		{ringPage, ringPage + 1},
		{2*ringPage + 44, 3*ringPage + 7}, // a short last page, wrapped
	} {
		ring := NewRingSink(tc.capacity)
		for i := 1; i <= tc.emitted; i++ {
			ring.Emit(Span{ID: uint64(i)})
		}
		kept := min(tc.capacity, tc.emitted)
		if ring.Len() != kept || ring.Total() != uint64(tc.emitted) {
			t.Fatalf("capacity %d: len=%d total=%d, want %d/%d",
				tc.capacity, ring.Len(), ring.Total(), kept, tc.emitted)
		}
		got := ring.Snapshot()
		if len(got) != kept {
			t.Fatalf("capacity %d: snapshot holds %d spans, want %d", tc.capacity, len(got), kept)
		}
		for i, sp := range got {
			if want := uint64(tc.emitted - kept + 1 + i); sp.ID != want {
				t.Fatalf("capacity %d: snapshot[%d] = span %d, want %d", tc.capacity, i, sp.ID, want)
			}
		}
	}
}

// TestRingSinkAllocatesOnUse pins that a ring's memory follows the
// spans it has held: an unused default ring costs a page table, not
// DefaultRingCapacity spans.
func TestRingSinkAllocatesOnUse(t *testing.T) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ring := NewRingSink(DefaultRingCapacity)
	runtime.ReadMemStats(&ms1)
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 4096 {
		t.Errorf("an empty %d-span ring allocated %d bytes, want <= 4096", DefaultRingCapacity, got)
	}
	ring.Emit(Span{ID: 1})
	if ring.Len() != 1 {
		t.Fatalf("len = %d after one span, want 1", ring.Len())
	}
}

func TestRecordInvocationMetrics(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	o.RecordInvocation(InvocationStats{
		Seconds: 0.25, ProfileSeconds: 0.1, Alpha: 0.6, Retries: 2,
		Profiled: true, ProfileSteps: 3, Fallback: "gpu-busy",
		MeterRejected: 4, Quarantined: true, Sanitized: true, BreakerState: 1,
	})
	o.RecordInvocation(InvocationStats{Seconds: 0.5, Alpha: 0.6, Fallback: "weird", BreakerState: -1})
	o.RecordBreakerTransition(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"eas_invocations_total 2",
		"eas_invocation_seconds_count 2",
		"eas_gpu_retries_total 2",
		"eas_invocations_profiled_total 1",
		"eas_profile_steps_total 3",
		"eas_profile_seconds_count 1",
		`eas_fallbacks_total{reason="gpu-busy"} 1`,
		`eas_fallbacks_total{reason="weird"} 1`,
		"eas_meter_samples_rejected_total 4",
		"eas_profiles_quarantined_total 1",
		"eas_profiles_sanitized_total 1",
		"eas_breaker_transitions_total 1",
		"eas_breaker_state 2", // transition after the BreakerState: -1 skip
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	if c := o.alphaDist.Count(); c != 2 {
		t.Errorf("alpha histogram count = %d, want 2", c)
	}
}

func TestHTTPHandler(t *testing.T) {
	ring := NewRingSink(8)
	o := New(ring, nil)
	sc := o.BeginInvocation(1, "k")
	sc.End()
	o.RecordInvocation(InvocationStats{Seconds: 0.1, Alpha: 0.5, BreakerState: 0})

	srv := httptest.NewServer(NewHTTPHandler(o.Registry(), ring))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(body, "eas_invocations_total 1") {
		t.Errorf("/metrics: code=%d body:\n%s", code, body)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	code, body, ctype = get("/debug/trace")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/debug/trace: code=%d body:\n%s", code, body)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/debug/trace content type %q", ctype)
	}
	if code, _, _ = get("/nope"); code != 404 {
		t.Errorf("unknown path: code=%d, want 404", code)
	}
}

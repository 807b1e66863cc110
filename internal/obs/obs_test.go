package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestNilObserverIsInert drives the record API through a nil observer
// and a nil record: nothing may panic and nothing may be recorded.
func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	var inv *Invocation
	inv.Begin(PhaseProfile)
	inv.End(PhaseProfile)
	inv.Fail(errors.New("x"))
	if inv.Ran(PhaseProfile) {
		t.Fatal("nil record reports a phase ran")
	}
	o.Finish(&Invocation{Wall: 1})
	o.Finish(nil)
	o.RecordWatchdogStall("t", time.Second)
	o.RecordBreakerTransition(1)
	if o.Registry() != nil {
		t.Fatal("nil observer has a registry")
	}
}

// traceEvent is the subset of an exported Chrome trace event the
// tests read.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args"`
}

func exportEvents(t *testing.T, recs []Invocation) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents[1:] // drop the process_name metadata
}

// TestObserverSpanTree checks the span tree one record exports: a root
// "invocation" slice with no parent, one child slice per phase that
// ran, the Explain on alpha-search, and the rare-path counts and flags
// as instants under the root.
func TestObserverSpanTree(t *testing.T) {
	ring := NewRingSink(16)
	o := New(ring, nil)
	inv := Invocation{ID: 42, Kernel: "bfs", Start: time.Now(), ProfileSteps: 1, Retries: 1, Profiled: true}
	for _, p := range []Phase{PhaseAdmit, PhaseProfile, PhaseSearch} {
		inv.Begin(p)
		inv.End(p)
	}
	inv.Explain = Explain{Alpha: 0.5, Category: "c"}
	o.Finish(&inv)

	recs := ring.Snapshot()
	if len(recs) != 1 || recs[0].ID != 42 || recs[0].Wall <= 0 {
		t.Fatalf("ring holds %+v, want one stamped record of invocation 42", recs)
	}
	events := exportEvents(t, recs)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	byName := map[string]traceEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
		if ev.TID != 42 || ev.Args["kernel"] != "bfs" {
			t.Errorf("event %q on track %d kernel %v, want 42/bfs", ev.Name, ev.TID, ev.Args["kernel"])
		}
	}
	root := byName["invocation"]
	if _, ok := root.Args["parent"]; ok || root.Phase != "X" {
		t.Errorf("root slice wrong: %+v", root)
	}
	for _, name := range []string{"admission-wait", "profile", "alpha-search"} {
		if ev := byName[name]; ev.Phase != "X" || ev.Args["parent"] != root.Args["span"] {
			t.Errorf("%s slice not parented to the root: %+v", name, ev)
		}
	}
	if _, ok := byName["alpha-search"].Args["explain"]; !ok {
		t.Error("alpha-search slice lost its explain record")
	}
	if ev := byName["gpu-retry"]; ev.Phase != "i" || ev.Args["parent"] != root.Args["span"] {
		t.Errorf("instant event wrong: %+v", ev)
	}
}

// TestRingKeepsRecordByValue pins the value semantics of the ring: it
// keeps a copy of each record, so a caller reusing its record after
// Finish changes nothing the ring stored.
func TestRingKeepsRecordByValue(t *testing.T) {
	ring := NewRingSink(8)
	o := New(ring, nil)
	inv := Invocation{ID: 1, Kernel: "k", Start: time.Now(), Alpha: 0.25}
	inv.Begin(PhaseExecute)
	inv.End(PhaseExecute)
	o.Finish(&inv)
	inv.Alpha = 0.75
	inv.Kernel = "other"
	inv.Phases[PhaseExecute].Dur = -1

	got := ring.Snapshot()[0]
	if got.Alpha != 0.25 || got.Kernel != "k" || got.Phases[PhaseExecute].Dur < 0 {
		t.Errorf("ring record changed with the caller's: %+v", got)
	}
	if pt := got.Phases[PhaseExecute]; pt.Start < 0 || pt.Start+pt.Dur > got.Wall {
		t.Errorf("execute phase %+v lies outside the invocation's %v", pt, got.Wall)
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
			ring.Put(&Invocation{ID: uint64(i)})
		}
		kept := min(tc.capacity, tc.emitted)
		if ring.Len() != kept || ring.Total() != uint64(tc.emitted) {
			t.Fatalf("capacity %d: len=%d total=%d, want %d/%d",
				tc.capacity, ring.Len(), ring.Total(), kept, tc.emitted)
		}
		got := ring.Snapshot()
		if len(got) != kept {
			t.Fatalf("capacity %d: snapshot holds %d records, want %d", tc.capacity, len(got), kept)
		}
		for i, rec := range got {
			if want := uint64(tc.emitted - kept + 1 + i); rec.ID != want {
				t.Fatalf("capacity %d: snapshot[%d] = record %d, want %d", tc.capacity, i, rec.ID, want)
			}
		}
	}
}

// TestRingSinkAllocatesOnUse pins that a ring's memory follows the
// records it has held: an unused default ring costs a page table, not
// DefaultRingCapacity records.
func TestRingSinkAllocatesOnUse(t *testing.T) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ring := NewRingSink(DefaultRingCapacity)
	runtime.ReadMemStats(&ms1)
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 4096 {
		t.Errorf("an empty %d-record ring allocated %d bytes, want <= 4096", DefaultRingCapacity, got)
	}
	ring.Put(&Invocation{ID: 1})
	if ring.Len() != 1 {
		t.Fatalf("len = %d after one record, want 1", ring.Len())
	}
}

func TestRecordInvocationMetrics(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	now := time.Now()
	o.Finish(&Invocation{
		Start: now, ProfileDuration: 100 * time.Millisecond, Alpha: 0.6, Retries: 1, EnqueueRetries: 1,
		Profiled: true, ProfileSteps: 3, Fallback: "gpu-busy",
		MeterRejected: 4, Quarantined: true, Sanitized: true,
	})
	o.Finish(&Invocation{Start: now, Alpha: 0.6, Fallback: "weird"})
	o.Finish(&Invocation{Start: now, Alpha: 0.6, Err: "failed"}) // traced, not counted
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
		"eas_breaker_state 2", // transitions are the gauge's only writer
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
	o.Finish(&Invocation{ID: 1, Kernel: "k", Start: time.Now(), Alpha: 0.5})

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

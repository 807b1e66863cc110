package eas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// chromeDump mirrors the subset of the Chrome trace-event format the
// exporter emits, enough to assert structure without depending on
// internal types.
type chromeDump struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TID   uint64         `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestObserverEndToEnd runs four tenants concurrently against one
// observed runtime — the ISSUE's acceptance scenario — then checks
// both exporters: the Chrome trace must contain one root span tree per
// invocation with the α-search decision audit attached, and /metrics
// must serve Prometheus text carrying the invocation-latency
// histogram, the α distribution, and the degradation counters.
func TestObserverEndToEnd(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:   EDP,
		Model:    sharedModel(t),
		Observer: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const tenants, perTenant = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			k := Kernel{
				Name:          fmt.Sprintf("tenant-%d", tn),
				FLOPsPerItem:  float64(10 * (tn + 1)),
				MemOpsPerItem: 50, L3MissRatio: 0.4, InstructionsPerItem: 300,
				Body: func(int) {},
			}
			for i := 0; i < perTenant; i++ {
				rep, err := rt.ParallelFor(k, 120000)
				if err != nil {
					errs <- fmt.Errorf("tenant %d invocation %d: %w", tn, i, err)
					return
				}
				if rep.InvocationID == 0 {
					errs <- fmt.Errorf("tenant %d invocation %d: zero InvocationID", tn, i)
					return
				}
				if rep.Finished.Before(rep.Started) || rep.Started.IsZero() {
					errs <- fmt.Errorf("tenant %d invocation %d: bad wall-clock stamps %v..%v",
						tn, i, rep.Started, rep.Finished)
					return
				}
			}
			errs <- nil
		}(tn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// --- Chrome trace exporter ---
	var buf bytes.Buffer
	if err := observer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var dump chromeDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if dump.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", dump.DisplayTimeUnit)
	}
	roots := map[uint64]bool{} // one root span track per invocation
	explains := 0
	for _, ev := range dump.TraceEvents {
		switch {
		case ev.Name == "invocation" && ev.Phase == "X":
			if kernel, _ := ev.Args["kernel"].(string); !strings.HasPrefix(kernel, "tenant-") {
				t.Errorf("root span for track %d has kernel %v, want tenant-*", ev.TID, ev.Args["kernel"])
			}
			roots[ev.TID] = true
		case ev.Name == "alpha-search":
			ex, ok := ev.Args["explain"].(map[string]any)
			if !ok {
				t.Fatalf("alpha-search span lacks explain args: %+v", ev.Args)
			}
			grid, ok := ex["grid"].([]any)
			if !ok || len(grid) < 2 {
				t.Fatalf("explain grid missing or trivial: %+v", ex)
			}
			for _, key := range []string{"rc", "rg", "category", "curve", "alpha", "objective"} {
				if _, ok := ex[key]; !ok {
					t.Errorf("explain missing %q: %+v", key, ex)
				}
			}
			explains++
		}
	}
	if want := tenants * perTenant; len(roots) != want {
		t.Errorf("trace has %d invocation tracks, want %d", len(roots), want)
	}
	// Every kernel is new on its first invocation, so each tenant
	// α-searches at least once.
	if explains < tenants {
		t.Errorf("trace has %d alpha-search explain records, want ≥ %d", explains, tenants)
	}

	// --- Prometheus / HTTP exporter ---
	srv := httptest.NewServer(observer.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, name := range []string{
		"eas_invocation_seconds", "eas_profile_seconds", "eas_alpha",
		"eas_gpu_retries_total", "eas_breaker_state",
		"eas_meter_samples_rejected_total",
		"eas_ws_steals_total", "eas_cl_enqueues_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if want := fmt.Sprintf("eas_invocation_seconds_count %d", tenants*perTenant); !strings.Contains(body, want) {
		t.Errorf("/metrics lacks %q:\n%s", want, body)
	}
	var viaHTTP chromeDump
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/trace")), &viaHTTP); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(viaHTTP.TraceEvents) == 0 {
		t.Error("/debug/trace returned an empty trace")
	}
}

// TestObserverServeLifecycle covers the managed HTTP endpoint: a ":0"
// listen picks a free port, the endpoint serves metrics, and Close is
// idempotent.
func TestObserverServeLifecycle(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	srv, err := observer.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "eas_invocation_seconds") {
		t.Errorf("served metrics missing histogram header:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestNilObserverAPI pins the nil-safety contract of the public
// surface: a nil *Observer is a valid "off" value everywhere.
func TestNilObserverAPI(t *testing.T) {
	var o *Observer
	if err := o.WriteChromeTrace(io.Discard); err == nil {
		t.Error("nil observer WriteChromeTrace should error")
	}
	if err := o.WriteMetrics(io.Discard); err == nil {
		t.Error("nil observer WriteMetrics should error")
	}
	if _, err := o.Serve("127.0.0.1:0"); err == nil {
		t.Error("nil observer Serve should error")
	}
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("nil observer handler status = %d, want 404", rec.Code)
	}
}

// TestInvocationIDsWithoutObserver checks the fallback sequence: even
// with no observer attached, reports carry monotonically increasing
// invocation ids and wall-clock stamps.
func TestInvocationIDsWithoutObserver(t *testing.T) {
	rt := newRuntime(t, EDP)
	var last uint64
	for i := 0; i < 3; i++ {
		rep, err := rt.ParallelFor(memKernel(nil), 100000)
		if err != nil {
			t.Fatal(err)
		}
		if rep.InvocationID <= last {
			t.Fatalf("invocation %d: id %d not increasing past %d", i, rep.InvocationID, last)
		}
		last = rep.InvocationID
		if rep.Started.IsZero() || rep.Finished.Before(rep.Started) {
			t.Fatalf("invocation %d: bad stamps %v..%v", i, rep.Started, rep.Finished)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, blob)
	}
	return string(blob)
}

// TestConcurrentWriteMetrics scrapes one observed runtime from eight
// goroutines while it serves invocations. Run with -race: the pull
// collectors keep unsynchronized snapshots, so the registry must run
// them one scrape at a time.
func TestConcurrentWriteMetrics(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t), Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := observer.WriteMetrics(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, err := rt.ParallelFor(computeKernel("scraped", func(int) {}), 4096); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestClosedRuntimesReleasedByObserver checks that a shared Observer
// does not keep closed runtimes reachable through their pull
// collectors, and that Close folds each runtime's final deltas first,
// so the shared counters still count work no scrape ever saw.
func TestClosedRuntimesReleasedByObserver(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	const runtimes, calls = 4, 3
	collected := make(chan struct{}, runtimes)
	for i := 0; i < runtimes; i++ {
		func() {
			rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t), Observer: observer})
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(rt, func(*Runtime) { collected <- struct{}{} })
			for j := 0; j < calls; j++ {
				rep, err := rt.ParallelFor(computeKernel("pinned", func(int) {}), 200000)
				if err != nil {
					t.Fatal(err)
				}
				if rep.GPUItems == 0 {
					t.Fatal("compute kernel ran CPU-only; no GPU enqueue to count")
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	deadline := time.After(5 * time.Second)
	for n := 0; n < runtimes; {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-deadline:
			t.Fatalf("%d of %d closed runtimes collected; the observer still pins the rest", n, runtimes)
		case <-time.After(10 * time.Millisecond):
		}
	}
	var b strings.Builder
	if err := observer.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf("eas_cl_enqueues_total %d\n", runtimes*calls),
		fmt.Sprintf("eas_admission_admitted_total{class=\"interactive\"} %d\n", runtimes*calls),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q after Close:\n%s", want, out)
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// fixedGrid is a GridSource with a tabulated objective per α.
type fixedGrid map[float64]float64

func (g fixedGrid) Objective(_ *Explain, alpha float64) float64 { return g[alpha] }

func fixedRecords() []Invocation {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	inv := Invocation{
		ID: 1, Kernel: "bfs", Start: base, Wall: 500 * time.Microsecond,
		Alpha: 0.6, Retries: 1,
		Explain: Explain{
			RC: 1e6, RG: 2e6, Category: "mem-cpuS-gpuL", CurveID: "mem-cpuS-gpuL~deg6",
			AlphaStep: 0.5,
			Source: fixedGrid{
				0: 3.5, 0.5: 1.25, 1: math.Inf(1),
			},
			Alpha: 0.5, Objective: 1.25,
		},
	}
	inv.Phases[PhaseSearch] = PhaseTime{Start: 100 * time.Microsecond, Dur: 10 * time.Microsecond}
	inv.ran = 1 << PhaseSearch
	return []Invocation{inv}
}

// TestChromeTraceRoundTrip checks the exporter emits valid JSON that
// round-trips through encoding/json with the span structure intact —
// including non-finite grid objectives, which must not break Marshal.
func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedRecords()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit: got %q", doc.DisplayTimeUnit)
	}
	// 1 metadata + the root, alpha-search and gpu-retry events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	// Re-marshal must also succeed (fully JSON-clean data).
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("re-marshal: %v", err)
	}

	var inv, search, retry map[string]any
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "invocation":
			inv = ev
		case "alpha-search":
			search = ev
		case "gpu-retry":
			retry = ev
		}
	}
	if inv == nil || search == nil || retry == nil {
		t.Fatalf("missing expected events in %v", doc.TraceEvents)
	}
	if inv["ph"] != "X" || inv["dur"].(float64) != 500 {
		t.Errorf("invocation span: ph=%v dur=%v, want X/500µs", inv["ph"], inv["dur"])
	}
	if inv["tid"].(float64) != 1 {
		t.Errorf("tid should be the invocation id, got %v", inv["tid"])
	}
	if retry["ph"] != "i" {
		t.Errorf("instant event: ph=%v, want i", retry["ph"])
	}
	ex, ok := search["args"].(map[string]any)["explain"].(map[string]any)
	if !ok {
		t.Fatalf("alpha-search span lacks explain args: %v", search["args"])
	}
	if ex["category"] != "mem-cpuS-gpuL" || ex["rc"].(float64) != 1e6 {
		t.Errorf("explain fields wrong: %v", ex)
	}
	grid, ok := ex["grid"].([]any)
	if !ok || len(grid) != 3 {
		t.Fatalf("explain grid wrong: %v", ex["grid"])
	}
	last := grid[2].(map[string]any)
	if last["objective"] != "+Inf" {
		t.Errorf("non-finite objective must encode as string, got %v", last["objective"])
	}
}

// TestChromeTraceGolden pins the exact serialization of a fixed record
// so format drift (field renames, timestamp units) is caught.
func TestChromeTraceGolden(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	recs := []Invocation{{
		ID: 7, Kernel: "scale", Start: base, Wall: 250 * time.Microsecond, Alpha: 0.5,
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"eas"}},` +
		`{"name":"invocation","cat":"eas","ph":"X","ts":0,"dur":250,"pid":1,"tid":7,` +
		`"args":{"alpha":0.5,"duration_us":0,"energy_j":0,"invocation":7,"kernel":"scale","span":1}}` +
		`],"displayTimeUnit":"ms"}`
	if got != want {
		t.Errorf("golden mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace is invalid JSON: %s", buf.String())
	}
}

// TestExplainGridInvalidStep checks that Grid walks the grid the search
// walked when the recorded step is outside (0, 1]: the paper's 11-point
// 0.1 grid, NaN included, not the 2-point grid int(Round(1/NaN)) once
// produced.
func TestExplainGridInvalidStep(t *testing.T) {
	for _, step := range []float64{0, -0.5, 1.5, math.Inf(1), math.NaN()} {
		ex := &Explain{AlphaStep: step, Source: fixedGrid{}}
		if got := len(ex.Grid()); got != 11 {
			t.Errorf("AlphaStep %v: Grid() has %d points, want 11", step, got)
		}
	}
}

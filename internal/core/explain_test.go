package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/wclass"
)

// TestExplainGridBitIdentical pins the lazily rebuilt decision-audit
// grid to the eager one the scheduler used to store with every
// decision: the same abscissas i/steps and the same Objective closure,
// compared bit for bit across the standard metrics and a custom one,
// a coarse and a fine grid, and a time model with no GPU throughput whose +Inf objectives must
// survive the round trip.
func TestExplainGridBitIdentical(t *testing.T) {
	custom := metrics.New("p2t", func(powerW, timeS float64) float64 { return powerW * powerW * timeS })
	const n = 150000
	models := []TimeModel{
		{RC: 3.1e8, RG: 8.7e8},
		{RC: 4.2e8, RG: 0},
	}
	for _, metric := range []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P, custom} {
		for _, step := range []float64{0.1, 0.0005} {
			s := newEAS(t, metric, Options{AlphaStep: step})
			for _, cat := range wclass.All() {
				curve, ok := s.curve(cat)
				if !ok {
					continue
				}
				for _, tm := range models {
					alpha, _ := BestAlpha(curve, tm, n, metric, step)
					var ex obs.Explain
					s.explain(&ex, tm, n, alpha, cat)

					// The eager reference: the loop explain used to run.
					obj := Objective(curve, tm, n, metric)
					steps := int(math.Round(1 / step))
					want := make([]obs.GridPoint, 0, steps+1)
					for i := 0; i <= steps; i++ {
						a := float64(i) / float64(steps)
						want = append(want, obs.GridPoint{Alpha: a, Objective: obj(a)})
					}

					name := metric.Name() + "/" + cat.Key()
					got := ex.Grid()
					if len(got) != len(want) {
						t.Fatalf("%s step=%v: grid has %d points, want %d", name, step, len(got), len(want))
					}
					infs := 0
					for i := range want {
						if math.Float64bits(got[i].Alpha) != math.Float64bits(want[i].Alpha) ||
							math.Float64bits(got[i].Objective) != math.Float64bits(want[i].Objective) {
							t.Fatalf("%s step=%v tm=%+v: point %d = %+v, want %+v",
								name, step, tm, i, got[i], want[i])
						}
						if math.IsInf(got[i].Objective, 1) {
							infs++
						}
					}
					if tm.RG == 0 && infs == 0 {
						t.Errorf("%s: RG=0 grid has no +Inf objective", name)
					}
					if math.Float64bits(ex.Objective) != math.Float64bits(obj(alpha)) {
						t.Errorf("%s: recorded objective %v, want %v", name, ex.Objective, obj(alpha))
					}
					argmin := 0
					for i, g := range got {
						if g.Objective < got[argmin].Objective {
							argmin = i
						}
					}
					if got[argmin].Alpha != ex.Alpha {
						t.Errorf("%s step=%v tm=%+v: grid argmin α=%v, decision α=%v",
							name, step, tm, got[argmin].Alpha, ex.Alpha)
					}
				}
			}
		}
	}
}

// TestRetainedExplainDoesNotPinScheduler checks that a decision-audit
// record outlives the scheduler that produced it without keeping it
// reachable: a shared Observer's ring retains records after their
// Runtime closes, and those records must not hold the scheduler's
// engine, α table or WAL alive, yet must still export the full grid.
func TestRetainedExplainDoesNotPinScheduler(t *testing.T) {
	ring := obs.NewRingSink(64)
	o := obs.New(ring, obs.NewRegistry())
	const step = 0.01
	collected := make(chan struct{})
	func() {
		s := newEAS(t, metrics.EDP, Options{Observer: o, ReprofileEvery: 1, AlphaStep: step})
		runtime.SetFinalizer(s, func(*Scheduler) { close(collected) })
		rep, err := s.ParallelFor(memKernel(), 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Profiled {
			t.Fatal("ReprofileEvery=1 invocation did not profile")
		}
	}()

	var ex *obs.Explain
	recs := ring.Snapshot()
	for i := range recs {
		if recs[i].Ran(obs.PhaseSearch) {
			ex = &recs[i].Explain
		}
	}
	if ex == nil {
		t.Fatal("no retained record carries an Explain")
	}
	// *Scheduler does not implement obs.GridSource, so the record's
	// source must be the scheduler-independent audit model.
	if _, ok := ex.Source.(*auditModel); !ok {
		t.Fatalf("Explain.Source is %T, want *auditModel", ex.Source)
	}
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("scheduler still reachable after GC while its records are retained")
		case <-time.After(10 * time.Millisecond):
		}
	}

	grid := ex.Grid()
	if want := int(math.Round(1/step)) + 1; len(grid) != want {
		t.Fatalf("retained Explain rebuilt %d grid points, want %d", len(grid), want)
	}
	best := grid[0]
	for _, g := range grid {
		if g.Objective < best.Objective {
			best = g
		}
	}
	if best.Alpha != ex.Alpha || best.Objective != ex.Objective {
		t.Errorf("rebuilt grid minimum (α=%v, obj=%v), decision (α=%v, obj=%v)",
			best.Alpha, best.Objective, ex.Alpha, ex.Objective)
	}
}

// TestAuditRecordsSearchedAlphaStep checks that the decision audit
// records the α step the search actually walked: a step outside (0, 1]
// falls back to the paper's 0.1 in both, so the exported grid has the
// 11 points the search evaluated and its minimum is the decision.
func TestAuditRecordsSearchedAlphaStep(t *testing.T) {
	ring := obs.NewRingSink(64)
	o := obs.New(ring, obs.NewRegistry())
	s := newEAS(t, metrics.EDP, Options{Observer: o, AlphaStep: 2})
	if _, err := s.ParallelFor(compKernel(), 200000); err != nil {
		t.Fatal(err)
	}
	var ex *obs.Explain
	recs := ring.Snapshot()
	for i := range recs {
		if recs[i].Ran(obs.PhaseSearch) {
			ex = &recs[i].Explain
		}
	}
	if ex == nil {
		t.Fatal("no record carries an Explain")
	}
	if ex.AlphaStep != 0.1 {
		t.Errorf("audit recorded AlphaStep %v, want the searched 0.1", ex.AlphaStep)
	}
	grid := ex.Grid()
	if len(grid) != 11 {
		t.Fatalf("Grid() exported %d points, want 11", len(grid))
	}
	best := grid[0]
	for _, g := range grid {
		if g.Objective < best.Objective {
			best = g
		}
	}
	if best.Alpha != ex.Alpha {
		t.Errorf("grid argmin α=%v, decision α=%v", best.Alpha, ex.Alpha)
	}
}

// TestNewRejectsUnrepairableOptions checks that New names the field of
// a non-finite float option or an unknown WAL sync mode instead of
// silently searching a degenerate grid.
func TestNewRejectsUnrepairableOptions(t *testing.T) {
	for _, c := range []struct {
		field string
		opts  Options
	}{
		{"AlphaStep", Options{AlphaStep: math.NaN()}},
		{"ConvergeTol", Options{ConvergeTol: math.Inf(1)}},
		{"Admission.TenantRate", Options{Admission: AdmissionOptions{TenantRate: math.Inf(-1)}}},
		{"State.Sync", Options{State: StatePolicy{Sync: 2}}},
	} {
		_, err := New(engine.New(platform.Desktop()), desktopModel(t), metrics.EDP, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New error = %v, want one naming the field", c.field, err)
		}
	}
	// Negative values keep their documented meanings.
	if _, err := New(engine.New(platform.Desktop()), desktopModel(t), metrics.EDP, Options{
		ConvergeTol: -1,
		Admission:   AdmissionOptions{RetryAfterFloor: -1},
	}); err != nil {
		t.Errorf("negative ConvergeTol/RetryAfterFloor rejected: %v", err)
	}
}

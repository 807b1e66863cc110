package report

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/workloads"
)

// TestEvaluateBuildsEachScheduleOnce wraps every workload's Schedule in
// a counter: one evaluation must build each schedule exactly once and
// share it with the Oracle search and every strategy.
func TestEvaluateBuildsEachScheduleOnce(t *testing.T) {
	for _, name := range []string{"desktop", "tablet"} {
		spec, _ := platform.Presets(name)
		wls := workloads.ForPlatform(name)
		calls := make([]atomic.Int32, len(wls))
		for i := range wls {
			build, n := wls[i].Schedule, &calls[i]
			wls[i].Schedule = func(p string, seed int64) ([]workloads.Invocation, error) {
				n.Add(1)
				return build(p, seed)
			}
		}
		if _, err := evaluateWorkloads(context.Background(), spec, wls, "edp", Options{}); err != nil {
			t.Fatal(err)
		}
		for i, w := range wls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("%s/%s: Schedule ran %d times in one evaluation, want 1", name, w.Abbrev, got)
			}
		}
	}
}

// TestCPUCellMatchesCPUOnly checks that the CPU cell the grid takes from
// the Oracle search's α = 0 candidate equals a separate sched.CPUOnly
// run field for field, for every workload on both platforms.
func TestCPUCellMatchesCPUOnly(t *testing.T) {
	for _, seed := range []int64{DefaultSeed, 7} {
		for _, name := range []string{"desktop", "tablet"} {
			fig, err := Evaluate(name, "edp", Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			spec, _ := platform.Presets(name)
			for _, w := range workloads.ForPlatform(name) {
				want, err := sched.CPUOnly().Run(context.Background(), w, spec, nil, metrics.EDP, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := fig.Cells[w.Abbrev]["CPU"].Result; got != want {
					t.Errorf("seed %d %s/%s: CPU cell %+v, CPUOnly %+v", seed, name, w.Abbrev, got, want)
				}
			}
		}
	}
}

// TestSharedScheduleRejectsOtherArgs checks that a shared schedule
// serves only the (platform, seed) it was shared for.
func TestSharedScheduleRejectsOtherArgs(t *testing.T) {
	w := shareSchedules(workloads.ForPlatform("desktop")[:1], "desktop", DefaultSeed)[0]
	if _, err := w.Schedule("desktop", DefaultSeed); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Schedule("tablet", DefaultSeed); err == nil {
		t.Error("other platform: no error")
	}
	if _, err := w.Schedule("desktop", DefaultSeed+1); err == nil {
		t.Error("other seed: no error")
	}
}

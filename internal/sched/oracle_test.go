package sched_test

import (
	"context"
	"math"
	"testing"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/report"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/workloads"
)

// gridAlphas is the Oracle's accumulated α grid at the paper's step:
// 0, 0.1, 0.2, 0.30000000000000004, …, 0.9999999999999999.
func gridAlphas() []float64 {
	var alphas []float64
	for alpha := 0.0; alpha <= 1+1e-9; alpha += 0.1 {
		alphas = append(alphas, min(alpha, 1))
	}
	return alphas
}

// fullRuns runs w to the end at every point of the grid. The totals do
// not depend on the metric, so one set serves every metric's sweep.
func fullRuns(t testing.TB, w workloads.Workload, spec platform.Spec, seed int64) []sched.Result {
	t.Helper()
	var runs []sched.Result
	for _, a := range gridAlphas() {
		res, err := sched.FixedAlpha(a).Run(context.Background(), w, spec, nil, metrics.Energy, seed)
		if err != nil {
			t.Fatal(err)
		}
		res.Strategy, res.OracleAlpha = "Oracle", a
		runs = append(runs, res)
	}
	return runs
}

// sweep is the exhaustive Oracle the search must agree with: every grid
// point run to the end under metric, and the lowest value kept by a
// low-to-high strict-< scan. It returns the pick and the α = 0 run
// labelled as the CPU cell.
func sweep(runs []sched.Result, metric metrics.Metric) (best, cpu sched.Result) {
	cands := make([]sched.Result, len(runs))
	for i, r := range runs {
		r.Value = metric.EvalEnergy(r.EnergyJ, r.Duration.Seconds())
		cands[i] = r
	}
	best = cands[0]
	for _, c := range cands[1:] {
		if c.Value < best.Value {
			best = c
		}
	}
	cpu = cands[0]
	cpu.Strategy = "CPU"
	return best, cpu
}

// checkSearch requires the search, on one worker and on four, to pick
// the sweep's winner and CPU cell bit for bit, and returns the
// invocations its serial run simulated.
func checkSearch(t *testing.T, name string, w workloads.Workload, spec platform.Spec, metric metrics.Metric, seed int64, runs []sched.Result) int {
	t.Helper()
	wantBest, wantCPU := sweep(runs, metric)
	simulated := 0
	for _, workers := range []int{1, 4} {
		best, cpu, n, err := sched.OracleSearchCounted(context.Background(), 0.1, workers, w, spec, metric, seed)
		if err != nil {
			t.Fatal(err)
		}
		if best != wantBest {
			t.Errorf("%s workers=%d: search picked %+v, sweep %+v", name, workers, best, wantBest)
		}
		if cpu != wantCPU {
			t.Errorf("%s workers=%d: CPU cell %+v, sweep %+v", name, workers, cpu, wantCPU)
		}
		if workers == 1 {
			simulated = n
		}
	}
	return simulated
}

// TestOracleSearchMatchesSweep checks the stopped-early search against
// the exhaustive sweep on every workload of Figs. 9-12 at three seeds,
// on the serial and the parallel path, and under ED2P at the figures'
// seed. Every metric here is standard, so candidates do stop.
func TestOracleSearchMatchesSweep(t *testing.T) {
	for _, seed := range []int64{report.DefaultSeed, 1, 7} {
		for _, name := range []string{"desktop", "tablet"} {
			spec, _ := platform.Presets(name)
			for _, w := range workloads.ForPlatform(name) {
				runs := fullRuns(t, w, spec, seed)
				ms := []metrics.Metric{metrics.EDP, metrics.Energy}
				if seed == report.DefaultSeed {
					ms = append(ms, metrics.ED2P)
				}
				for _, m := range ms {
					checkSearch(t, name+"/"+m.Name()+"/"+w.Abbrev, w, spec, m, seed, runs)
				}
			}
		}
	}
}

// TestOracleSearchCustomMetricRunsEveryCandidate checks that a custom
// metric, which promises no order between partial and final totals,
// stops no candidate and still picks the sweep's winner.
func TestOracleSearchCustomMetricRunsEveryCandidate(t *testing.T) {
	battery := metrics.New("battery", func(p, t float64) float64 { return p * t * math.Sqrt(t) })
	spec := platform.DesktopSpec()
	for _, ab := range []string{"CC", "BS", "SL"} {
		w, _ := workloads.ByAbbrev(ab)
		runs := fullRuns(t, w, spec, report.DefaultSeed)
		full := len(runs) * runs[0].Invocations
		if got := checkSearch(t, "battery/"+ab, w, spec, battery, report.DefaultSeed, runs); got != full {
			t.Errorf("%s: custom metric simulated %d invocations, want all %d", ab, got, full)
		}
	}
}

// TestOracleSearchTies checks that tied candidates break toward the
// smaller α. In the search, a workload of empty invocations ties every
// candidate at 0, the high-α candidates finish before the low ones, and
// a tie must not stop anyone: the pick is α = 0, as the sweep's. The
// pick itself is checked on a constructed tie between α = 0.3 and
// α = 0.7 above a worse α = 0, with stopped candidates at +Inf.
func TestOracleSearchTies(t *testing.T) {
	spec := platform.DesktopSpec()
	sm, _ := workloads.ByAbbrev("SM")
	invs, err := sm.Schedule(spec.Name, report.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]workloads.Invocation, len(invs))
	for i, inv := range invs {
		empty[i] = workloads.Invocation{Kernel: inv.Kernel}
	}
	w := workloads.Workload{Name: "empty", Abbrev: "EMPTY", Schedule: func(string, int64) ([]workloads.Invocation, error) {
		return empty, nil
	}}
	runs := fullRuns(t, w, spec, report.DefaultSeed)
	full := len(runs) * len(empty)
	for _, m := range []metrics.Metric{metrics.Energy, metrics.EDP} {
		if got := checkSearch(t, "empty/"+m.Name(), w, spec, m, report.DefaultSeed, runs); got != full {
			t.Errorf("%s: tied candidates simulated %d invocations, want all %d", m.Name(), got, full)
		}
	}

	inf := math.Inf(1)
	values := []float64{5, inf, 3, 2, inf, 4, 3, 2, inf, 2.5, inf}
	cands := make([]sched.Result, len(values))
	for i, v := range values {
		cands[i] = sched.Result{OracleAlpha: float64(i) / 10, Value: v}
	}
	if got := sched.PickOracle(cands); got.OracleAlpha != 0.3 {
		t.Errorf("tie between α = 0.3 and 0.7 picked α = %v", got.OracleAlpha)
	}
}

// simulatedOnFigure runs the serial search on every workload of one
// figure at the figures' seed and returns the invocations it simulated
// and the invocations the full sweep would.
func simulatedOnFigure(t testing.TB, platformName string, metric metrics.Metric) (simulated, full int) {
	spec, _ := platform.Presets(platformName)
	for _, w := range workloads.ForPlatform(platformName) {
		_, _, n, err := sched.OracleSearchCounted(context.Background(), 0.1, 1, w, spec, metric, report.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		invs, err := w.Schedule(platformName, report.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		simulated += n
		full += len(gridAlphas()) * len(invs)
	}
	return simulated, full
}

// TestOracleSearchPrunes checks that the search stops losing candidates
// early enough to matter, so that a silent fall-back to the full sweep
// fails. On Fig. 10 (desktop, energy) at the figures' seed the serial
// search simulates 62.6% of the full sweep's invocations; the bound
// leaves headroom for model changes that move the winners.
func TestOracleSearchPrunes(t *testing.T) {
	simulated, full := simulatedOnFigure(t, "desktop", metrics.Energy)
	t.Logf("desktop/energy: %d of %d invocations (%.1f%%)", simulated, full, 100*float64(simulated)/float64(full))
	if float64(simulated) > 0.70*float64(full) {
		t.Errorf("search simulated %d of the full sweep's %d invocations, want at most 70%%", simulated, full)
	}
}

// BenchmarkOracleSearch runs the Oracle's search over every workload of
// Fig. 10 (desktop, energy) and Fig. 11 (tablet, EDP), and reports the
// invocations it simulated per op against the full sweep's. Each
// workload's schedule is built once, before the timer, as the
// evaluation grid shares it, so an op times the search alone.
func BenchmarkOracleSearch(b *testing.B) {
	for _, f := range []struct {
		platform string
		metric   metrics.Metric
	}{{"desktop", metrics.Energy}, {"tablet", metrics.EDP}} {
		b.Run(f.platform+"/"+f.metric.Name(), func(b *testing.B) {
			spec, _ := platform.Presets(f.platform)
			wls := workloads.ForPlatform(f.platform)
			full := 0
			for i, w := range wls {
				invs, err := w.Schedule(f.platform, report.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				full += len(gridAlphas()) * len(invs)
				wls[i].Schedule = func(string, int64) ([]workloads.Invocation, error) { return invs, nil }
			}
			b.ReportAllocs()
			b.ResetTimer()
			simulated := 0
			for i := 0; i < b.N; i++ {
				for _, w := range wls {
					_, _, n, err := sched.OracleSearchCounted(context.Background(), 0.1, 0, w, spec, f.metric, report.DefaultSeed)
					if err != nil {
						b.Fatal(err)
					}
					simulated += n
				}
			}
			b.ReportMetric(float64(simulated)/float64(b.N), "invocations/op")
			b.ReportMetric(float64(full), "sweep-invocations/op")
		})
	}
}

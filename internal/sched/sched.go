// Package sched implements the five scheduling strategies the paper
// evaluates (§5): CPU-alone, GPU-alone, PERF (best-performance
// partitioning), the Oracle (the best fixed offload ratio on an α
// grid, found offline), and EAS (the energy-aware scheduler). All
// strategies run whole workloads — every kernel invocation of Table
// 1's schedules — on a freshly booted simulated platform and report
// the total execution time, package energy, and the value of the
// evaluation metric.
package sched

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/par"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/trace"
	"github.com/hetsched/eas/internal/workloads"
)

// InterInvocationGap is the simulated host-side time between kernel
// invocations (frontier construction, buffer bookkeeping). It is far
// shorter than the PCU's idle hysteresis, so back-to-back kernels do
// not re-trigger the start-of-kernel transient.
const InterInvocationGap = 200 * time.Microsecond

// Result summarizes one workload run under one strategy.
type Result struct {
	// Strategy, Workload, Platform identify the run.
	Strategy, Workload, Platform string
	// Duration and EnergyJ are whole-application totals.
	Duration time.Duration
	EnergyJ  float64
	// Value is the evaluation metric over the whole run.
	Value float64
	// GPUShare is the fraction of all items that ran on the GPU.
	GPUShare float64
	// OracleAlpha is the winning fixed ratio (Oracle strategy only).
	OracleAlpha float64
	// Invocations is the number of kernel invocations executed.
	Invocations int
}

// Strategy runs a workload on a platform and reports totals.
type Strategy interface {
	// Name is the strategy's display name ("CPU", "GPU", "PERF",
	// "Oracle", "EAS").
	Name() string
	// Run executes the full workload. ctx cancels the run between
	// phases (the Oracle's parallel α search and EAS's admission both
	// honour it); the characterization model is used only by
	// strategies that need it (EAS); metric is the evaluation
	// objective.
	Run(ctx context.Context, w workloads.Workload, spec platform.Spec, model *powerchar.Model, metric metrics.Metric, seed int64) (Result, error)
}

// runFixed executes a whole workload at one fixed GPU offload ratio,
// recording the power trace of every phase and idle gap into tr when
// tr is non-nil. It fills the run's totals, not its Strategy or Value.
// With a non-nil cut it checks the partial totals after every
// invocation and stops as soon as they prove the run loses (see
// cutoff); stopped is then true and Invocations counts the invocations
// run.
func runFixed(w workloads.Workload, spec platform.Spec, alpha float64, seed int64, tr *trace.Set, cut *cutoff) (res Result, stopped bool, err error) {
	invs, err := w.Schedule(spec.Name, seed)
	if err != nil {
		return Result{}, false, err
	}
	p, err := platform.New(spec)
	if err != nil {
		return Result{}, false, err
	}
	eng := engine.New(p)
	var total time.Duration
	var energy, gpuItems, allItems float64
	done := 0
	for i := range invs {
		inv := &invs[i]
		n := float64(inv.N)
		ph, err := eng.Run(engine.Phase{
			Kernel:    inv.Kernel,
			GPUItems:  alpha * n,
			PoolItems: (1 - alpha) * n,
			Trace:     tr,
		})
		if err != nil {
			return Result{}, false, fmt.Errorf("sched: %s at alpha=%v: %w", w.Abbrev, alpha, err)
		}
		total += ph.Duration
		energy += ph.EnergyJ
		gpuItems += ph.GPUItems
		allItems += n
		eng.RunIdle(InterInvocationGap, tr)
		done++
		if cut == nil || done == len(invs) {
			continue
		}
		if !(ph.EnergyJ >= 0) || ph.Duration < 0 {
			// The totals may fall from here on, so no partial value
			// bounds the final one.
			cut = nil
		} else if cut.beaten(energy, total) {
			stopped = true
			break
		}
	}
	share := 0.0
	if allItems > 0 {
		share = gpuItems / allItems
	}
	return Result{
		Workload: w.Abbrev, Platform: spec.Name,
		Duration: total, EnergyJ: energy, GPUShare: share, Invocations: done,
	}, stopped, nil
}

// RunFixedTraced executes a whole workload at one fixed offload ratio
// with full power-trace recording — the analysis path behind the
// per-workload detail reports.
func RunFixedTraced(w workloads.Workload, spec platform.Spec, alpha float64, seed int64) (Result, *trace.Set, error) {
	tr := trace.NewSet()
	res, _, err := runFixed(w, spec, alpha, seed, tr, nil)
	if err != nil {
		return Result{}, nil, err
	}
	res.Strategy = fmt.Sprintf("alpha=%.2f", alpha)
	return res, tr, nil
}

// fixed is the CPU-alone / GPU-alone strategy.
type fixed struct {
	name  string
	alpha float64
}

// CPUOnly runs everything on the multi-core CPU (TBB-style).
func CPUOnly() Strategy { return fixed{name: "CPU", alpha: 0} }

// GPUOnly runs everything on the GPU through the OpenCL-style queue.
func GPUOnly() Strategy { return fixed{name: "GPU", alpha: 1} }

// FixedAlpha runs everything at one offload ratio (the Oracle's
// building block, also useful for sweeps like Fig. 1).
func FixedAlpha(alpha float64) Strategy {
	return fixed{name: fmt.Sprintf("alpha=%.2f", alpha), alpha: alpha}
}

func (f fixed) Name() string { return f.name }

func (f fixed) Run(_ context.Context, w workloads.Workload, spec platform.Spec, _ *powerchar.Model, metric metrics.Metric, seed int64) (Result, error) {
	res, _, err := runFixed(w, spec, f.alpha, seed, nil, nil)
	if err != nil {
		return Result{}, err
	}
	res.Strategy = f.name
	res.Value = metric.EvalEnergy(res.EnergyJ, res.Duration.Seconds())
	return res, nil
}

// oracle searches fixed offload ratios for the best one.
type oracle struct {
	step float64
}

// Oracle returns the paper's baseline: the best fixed ratio on
// OracleSearch's α grid (paper: step = 0.1).
func Oracle(step float64) Strategy {
	return oracle{step: oracleStep(step)}
}

// oracleStep normalizes an Oracle grid step: values outside (0, 0.5]
// select the paper's 0.1.
func oracleStep(step float64) float64 {
	if step <= 0 || step > 0.5 {
		return 0.1
	}
	return step
}

func (o oracle) Name() string { return "Oracle" }

func (o oracle) Run(ctx context.Context, w workloads.Workload, spec platform.Spec, _ *powerchar.Model, metric metrics.Metric, seed int64) (Result, error) {
	best, _, err := OracleSearch(ctx, o.step, 0, w, spec, metric, seed)
	return best, err
}

// OracleSearch finds the Oracle's result: the fixed ratio with the
// lowest metric value on the α grid, ties broken toward the smaller α,
// exactly as a full sweep of the grid would pick it. It also returns
// the grid's α = 0 candidate, labelled as CPUOnly labels it: the same
// run as CPUOnly, so a caller that needs both need not run it twice.
//
// The grid accumulates alpha += step from 0 while alpha ≤ 1+1e-9, so
// its points carry the float rounding of the sum: with the paper's
// step 0.1 they are 0, 0.1, 0.2, 0.30000000000000004, …,
// 0.9999999999999999 — the last point is not 1. So GPUOnly cannot be
// taken from the grid the same way: the last point leaves a ~1e-16
// share of every invocation to the CPU, and its time and energy differ
// from GPUOnly's α = 1 run in the low bits (BFS on the desktop:
// 168.129071 ms against 168.129166 ms). Moving the grid onto exact
// multiples of step would change the pinned figures. step is
// normalized as Oracle normalizes it.
//
// The search is a branch and bound. Every candidate boots its own
// platform and runs on a pool of workers (≤ 0 selects GOMAXPROCS; 1
// runs inline): α = 0 first, then the others from high α to low, where
// the winners usually sit. For the standard metrics, a candidate stops
// between invocations once its partial totals prove it loses to a
// finished one (see cutoff); only the winner and α = 0 are certain to
// run to the end. Which candidates stop depends on the order in which
// they finish, but the pick does not: every stopped candidate ends
// strictly above a finished one, so the low-to-high scan, with stopped
// candidates at +Inf, returns what it would over a full sweep.
func OracleSearch(ctx context.Context, step float64, workers int, w workloads.Workload, spec platform.Spec, metric metrics.Metric, seed int64) (best, cpu Result, err error) {
	best, cpu, _, err = oracleSearch(ctx, step, workers, w, spec, metric, seed)
	return best, cpu, err
}

// oracleSearch is OracleSearch that also returns the number of
// invocations its candidates simulated.
func oracleSearch(ctx context.Context, step float64, workers int, w workloads.Workload, spec platform.Spec, metric metrics.Metric, seed int64) (best, cpu Result, simulated int, err error) {
	step = oracleStep(step)
	n := 0
	for alpha := 0.0; alpha <= 1+1e-9; alpha += step {
		n++
	}
	cands := make([]Result, n)
	alpha := 0.0
	for i := range cands {
		cands[i].OracleAlpha = min(alpha, 1)
		alpha += step
	}
	var cut *cutoff
	if metric.TimeExponent() > 0 {
		cut = &cutoff{metric: metric}
		cut.best.Store(math.Float64bits(math.Inf(1)))
	}
	err = par.ForEach(ctx, n, workers, func(_ context.Context, j int) error {
		i := j
		if j > 0 {
			i = n - j
		}
		c := &cands[i]
		a := c.OracleAlpha
		candCut := cut
		if i == 0 {
			candCut = nil // the CPU cell is needed in full
		}
		res, stopped, err := runFixed(w, spec, a, seed, nil, candCut)
		if err != nil {
			return err
		}
		res.Strategy, res.OracleAlpha = "Oracle", a
		if stopped {
			res.Value = math.Inf(1)
		} else {
			res.Value = metric.EvalEnergy(res.EnergyJ, res.Duration.Seconds())
			cut.offer(res.Value)
		}
		*c = res
		return nil
	})
	if err != nil {
		return Result{}, Result{}, 0, err
	}
	for i := range cands {
		simulated += cands[i].Invocations
	}
	best, cpu = pickOracle(cands), cands[0]
	cpu.Strategy = CPUOnly().Name()
	return best, cpu, simulated, nil
}

// pickOracle is the Oracle's pick: the lowest value by a low-to-high
// scan of the candidates, so ties break toward the smaller α.
func pickOracle(cands []Result) Result {
	best := cands[0]
	for i := 1; i < len(cands); i++ {
		if cands[i].Value < best.Value {
			best = cands[i]
		}
	}
	return best
}

// cutoff is the bound an Oracle search stops candidates by: the lowest
// metric value among its finished candidates, shared by its workers.
//
// A stop is exact for the standard metrics, P·T^k = E·T^(k-1) with k
// = Metric.TimeExponent() ≥ 1. runFixed's time total is a Duration
// sum, exact and never decreasing; its energy total is a float64 sum
// of non-negative joules, and adding a non-negative float never lowers
// it. So the value at a run's final totals is at least the value at
// any partial totals, up to a few ulps of EvalEnergy rounding, and a
// candidate whose partial value exceeds a finished one's by more than
// cutSlack ends strictly above it: it can neither win nor tie. A
// custom metric (TimeExponent 0) promises no such order and gets no
// cutoff; a run that sees a negative or NaN phase drops its own.
type cutoff struct {
	metric metrics.Metric
	best   atomic.Uint64 // float64 bits; +Inf until a candidate finishes
}

// cutSlack is the relative margin a partial value must clear before a
// candidate stops: far above EvalEnergy's few-ulp rounding.
const cutSlack = 1e-9

// beaten reports whether a run with these partial totals must end
// strictly above the best finished candidate.
func (c *cutoff) beaten(energyJ float64, d time.Duration) bool {
	best := math.Float64frombits(c.best.Load())
	return c.metric.EvalEnergy(energyJ, d.Seconds()) > best*(1+cutSlack)
}

// offer records a finished candidate's value. Only values ≥ 0 are kept:
// the slack above needs a non-negative bound, and NaN bounds nothing.
// A nil cutoff ignores the offer.
func (c *cutoff) offer(v float64) {
	if c == nil || !(v >= 0) {
		return
	}
	for {
		old := c.best.Load()
		if v >= math.Float64frombits(old) || c.best.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// adaptive wraps the EAS runtime; with the time metric it degenerates
// to the paper's PERF strategy.
type adaptive struct {
	name string
	// objective is what the runtime optimizes; the evaluation metric
	// may differ (PERF optimizes time but is judged on energy metrics).
	objective func(metric metrics.Metric) metrics.Metric
	opts      core.Options
}

// EAS returns the paper's energy-aware scheduler optimizing the
// evaluation metric itself.
func EAS(opts core.Options) Strategy {
	return adaptive{
		name:      "EAS",
		objective: func(m metrics.Metric) metrics.Metric { return m },
		opts:      opts,
	}
}

// Perf returns the best-performance strategy of [12]: the same
// profiling machinery, but partitioning purely to minimize execution
// time.
func Perf(opts core.Options) Strategy {
	timeMetric := metrics.New("time", func(_, t float64) float64 { return t })
	return adaptive{
		name:      "PERF",
		objective: func(metrics.Metric) metrics.Metric { return timeMetric },
		opts:      opts,
	}
}

func (a adaptive) Name() string { return a.name }

func (a adaptive) Run(ctx context.Context, w workloads.Workload, spec platform.Spec, model *powerchar.Model, metric metrics.Metric, seed int64) (Result, error) {
	if model == nil {
		return Result{}, fmt.Errorf("sched: %s needs a power characterization model", a.name)
	}
	invs, err := w.Schedule(spec.Name, seed)
	if err != nil {
		return Result{}, err
	}
	p, err := platform.New(spec)
	if err != nil {
		return Result{}, err
	}
	eng := engine.New(p)
	s, err := core.New(eng, model, a.objective(metric), a.opts)
	if err != nil {
		return Result{}, err
	}
	// Flush durable state (Options.State.Path) at the end of the run so
	// a later process warm-starts from this run's learned α table; a
	// no-op without a configured state store.
	defer s.Close()
	var total time.Duration
	var energy, gpuItems, allItems float64
	for i := range invs {
		inv := &invs[i]
		rep, err := s.ParallelForCtx(ctx, inv.Kernel, inv.N)
		if err != nil {
			return Result{}, fmt.Errorf("sched: %s on %s: %w", a.name, w.Abbrev, err)
		}
		total += rep.Duration
		energy += rep.EnergyJ
		gpuItems += rep.GPUItems
		allItems += float64(inv.N)
		eng.RunIdle(InterInvocationGap, nil)
	}
	share := 0.0
	if allItems > 0 {
		share = gpuItems / allItems
	}
	return Result{
		Strategy: a.name, Workload: w.Abbrev, Platform: spec.Name,
		Duration: total, EnergyJ: energy,
		Value:       metric.EvalEnergy(energy, total.Seconds()),
		GPUShare:    share,
		Invocations: len(invs),
	}, nil
}

// Package report runs the paper's evaluation grids and renders the
// tables and figures of §5: per-workload efficiency relative to the
// Oracle for each scheduling strategy (Figs. 9-12), the Table 1
// workload statistics with measured classifications, and the Fig. 1
// energy/performance sweep.
package report

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/par"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/vmath"
	"github.com/hetsched/eas/internal/workloads"
)

// DefaultSeed keeps every experiment reproducible.
const DefaultSeed = 20160312 // the paper's conference date

// Cell is one workload × strategy measurement.
type Cell struct {
	sched.Result
	// EfficiencyPct is Oracle/value × 100 (100 = matches Oracle).
	EfficiencyPct float64
}

// EfficiencyFigure is one of Figs. 9-12: a platform × metric grid.
type EfficiencyFigure struct {
	// ID names the paper figure ("Figure 9").
	ID string
	// Platform and Metric identify the experiment.
	Platform, Metric string
	// Strategies lists strategy names in display order.
	Strategies []string
	// Workloads lists workload abbreviations in Table 1 order.
	Workloads []string
	// Cells maps workload → strategy → measurement.
	Cells map[string]map[string]Cell
	// Oracle maps workload → the Oracle run.
	Oracle map[string]sched.Result
}

// Average returns the arithmetic-mean efficiency of a strategy across
// workloads (the paper's headline averages).
func (f *EfficiencyFigure) Average(strategy string) float64 {
	var vals []float64
	for _, w := range f.Workloads {
		if c, ok := f.Cells[w][strategy]; ok {
			vals = append(vals, c.EfficiencyPct)
		}
	}
	return vmath.Mean(vals)
}

// Options configure an evaluation run.
type Options struct {
	// Seed for workload schedules; 0 selects DefaultSeed.
	Seed int64
	// OracleStep is the Oracle's α grid step; 0 selects 0.1.
	OracleStep float64
	// EAS options (zero = paper defaults).
	EAS core.Options
	// Model supplies a precomputed characterization; nil resolves the
	// platform's model through the shared powerchar cache (measuring
	// it only the first time a process needs it).
	Model *powerchar.Model
	// Serial disables the evaluation grid's parallel fan-out, running
	// every cell sequentially in display order and every Oracle
	// search's candidates on one worker in search order. The parallel
	// path picks the same results by construction (each run boots its
	// own platform and shares only read-only schedules, and the Oracle
	// search's pick does not depend on which candidates it stops);
	// Serial exists so tests can prove that, and as an escape hatch for
	// single-core debugging.
	Serial bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.OracleStep <= 0 {
		o.OracleStep = 0.1
	}
	if o.EAS == (core.Options{}) {
		// Standard runtime configuration: size-based profiling with
		// convergence stop. Callers passing any explicit EAS options
		// get them verbatim (the ablations rely on this).
		o.EAS = core.Options{GrowProfileChunk: true, ConvergeTol: 0.08}
	}
	return o
}

// figureID maps platform/metric to the paper's figure numbers.
func figureID(platformName, metricName string) string {
	switch platformName + "/" + metricName {
	case "desktop/edp":
		return "Figure 9"
	case "desktop/energy":
		return "Figure 10"
	case "tablet/edp":
		return "Figure 11"
	case "tablet/energy":
		return "Figure 12"
	}
	return fmt.Sprintf("%s/%s", platformName, metricName)
}

// Evaluate runs the full strategy grid for one platform preset and
// metric.
func Evaluate(platformName, metricName string, opts Options) (*EfficiencyFigure, error) {
	return EvaluateCtx(context.Background(), platformName, metricName, opts)
}

// EvaluateCtx is Evaluate with cancellation: the workloads × strategies
// grid (and the Oracle's α search inside it) fans out concurrently, and
// the first failing cell — or a cancelled ctx — stops the rest.
func EvaluateCtx(ctx context.Context, platformName, metricName string, opts Options) (*EfficiencyFigure, error) {
	spec, ok := platform.Presets(platformName)
	if !ok {
		return nil, fmt.Errorf("report: unknown platform %q", platformName)
	}
	return evaluateSpec(ctx, spec, metricName, opts)
}

// evaluateSpec is Evaluate for an explicit platform spec (used by the
// SKU-variation study, which runs on perturbed units) over the
// workloads the platform supports.
func evaluateSpec(ctx context.Context, spec platform.Spec, metricName string, opts Options) (*EfficiencyFigure, error) {
	return evaluateWorkloads(ctx, spec, workloads.ForPlatform(spec.Name), metricName, opts)
}

// evaluateWorkloads runs the workloads × strategies grid. Every run
// executes on a freshly booted simulated platform, so the grid's jobs
// run concurrently on a pool bounded by GOMAXPROCS; results are
// written into pre-sized slots and assembled in display order, keeping
// the figure byte-identical to a serial evaluation.
//
// Nothing is simulated twice: each workload's schedule is built once
// and shared read-only by all of its runs, and the CPU cell is the
// Oracle search's α = 0 candidate (the same run as sched.CPUOnly).
func evaluateWorkloads(ctx context.Context, spec platform.Spec, wls []workloads.Workload, metricName string, opts Options) (*EfficiencyFigure, error) {
	opts = opts.withDefaults()
	metric, err := metrics.ByName(metricName)
	if err != nil {
		return nil, err
	}
	model := opts.Model
	if model == nil {
		model, err = powerchar.Cached(ctx, spec, powerchar.Options{})
		if err != nil {
			return nil, err
		}
	}

	// The CPU strategy heads the display order; its cell comes from the
	// Oracle search, so only the others run as jobs of their own.
	cpuName := sched.CPUOnly().Name()
	strategies := []sched.Strategy{
		sched.GPUOnly(),
		sched.Perf(opts.EAS),
		sched.EAS(opts.EAS),
	}

	fig := &EfficiencyFigure{
		ID:         figureID(spec.Name, metricName),
		Platform:   spec.Name,
		Metric:     metricName,
		Strategies: []string{cpuName},
		Cells:      map[string]map[string]Cell{},
		Oracle:     map[string]sched.Result{},
	}
	for _, s := range strategies {
		fig.Strategies = append(fig.Strategies, s.Name())
	}

	// One job per run: index j decomposes as (workload, slot) with slot
	// 0 the Oracle search (which also yields the CPU cell) and slot i>0
	// strategies[i-1]. Serial mode runs the same jobs, and each Oracle
	// search's candidates, on one worker in index order.
	wls = shareSchedules(wls, spec.Name, opts.Seed)
	for _, w := range wls {
		fig.Workloads = append(fig.Workloads, w.Abbrev)
	}
	slots := len(strategies) + 1
	oracleRes := make([]sched.Result, len(wls))
	cellRes := make([][]sched.Result, len(wls))
	for i := range cellRes {
		cellRes[i] = make([]sched.Result, slots)
	}
	workers := 0
	if opts.Serial {
		workers = 1
	}
	err = par.ForEach(ctx, len(wls)*slots, workers, func(ctx context.Context, j int) error {
		wi, si := j/slots, j%slots
		w := wls[wi]
		if si == 0 {
			best, cpu, err := sched.OracleSearch(ctx, opts.OracleStep, workers, w, spec, metric, opts.Seed)
			if err != nil {
				return fmt.Errorf("report: oracle on %s: %w", w.Abbrev, err)
			}
			oracleRes[wi], cellRes[wi][0] = best, cpu
			return nil
		}
		s := strategies[si-1]
		res, err := s.Run(ctx, w, spec, model, metric, opts.Seed)
		if err != nil {
			return fmt.Errorf("report: %s on %s: %w", s.Name(), w.Abbrev, err)
		}
		cellRes[wi][si] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	for wi, w := range wls {
		fig.Oracle[w.Abbrev] = oracleRes[wi]
		fig.Cells[w.Abbrev] = map[string]Cell{}
		for si, name := range fig.Strategies {
			fig.Cells[w.Abbrev][name] = Cell{
				Result:        cellRes[wi][si],
				EfficiencyPct: metrics.Efficiency(oracleRes[wi].Value, cellRes[wi][si].Value),
			}
		}
	}
	return fig, nil
}

// shareSchedules returns copies of wls whose Schedule builds the
// (platformName, seed) schedule once, on first use, and hands every
// later caller the same slice, which they must treat as read-only.
// Every run of the grid asks for exactly that schedule; any other
// arguments are an error. The copies live only as long as the
// evaluation that made them.
func shareSchedules(wls []workloads.Workload, platformName string, seed int64) []workloads.Workload {
	out := make([]workloads.Workload, len(wls))
	for i, w := range wls {
		build := w.Schedule
		var (
			once sync.Once
			invs []workloads.Invocation
			err  error
		)
		w.Schedule = func(p string, s int64) ([]workloads.Invocation, error) {
			if p != platformName || s != seed {
				return nil, fmt.Errorf("report: schedule of %s shared for (%s, %d), asked for (%s, %d)", w.Abbrev, platformName, seed, p, s)
			}
			once.Do(func() { invs, err = build(p, s) })
			return invs, err
		}
		out[i] = w
	}
	return out
}

// Render writes the figure as a table: one row per workload, one
// column per strategy (efficiency vs Oracle, %), plus the averages row
// the paper quotes.
func (f *EfficiencyFigure) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s: relative %s efficiency vs Oracle on the %s (Oracle = 100%%, higher is better)\n",
		f.ID, strings.ToUpper(f.Metric), f.Platform)
	fmt.Fprintf(w, "%-6s", "bench")
	for _, s := range f.Strategies {
		fmt.Fprintf(w, "%10s", s)
	}
	fmt.Fprintf(w, "%12s\n", "Oracle α")
	for _, wl := range f.Workloads {
		fmt.Fprintf(w, "%-6s", wl)
		for _, s := range f.Strategies {
			fmt.Fprintf(w, "%9.1f%%", f.Cells[wl][s].EfficiencyPct)
		}
		fmt.Fprintf(w, "%12.1f\n", f.Oracle[wl].OracleAlpha)
	}
	fmt.Fprintf(w, "%-6s", "avg")
	for _, s := range f.Strategies {
		fmt.Fprintf(w, "%9.1f%%", f.Average(s))
	}
	fmt.Fprintln(w)
	return nil
}

// Fig1Point is one α of the Fig. 1 sweep.
type Fig1Point struct {
	Alpha   float64
	EnergyJ float64
	Seconds float64
}

// Fig1Sweep reproduces Figure 1: Connected Components on the desktop
// across fixed GPU offload ratios, reporting energy and runtime.
func Fig1Sweep(step float64, seed int64) ([]Fig1Point, error) {
	if step <= 0 {
		step = 0.1
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	spec := platform.DesktopSpec()
	cc, ok := workloads.ByAbbrev("CC")
	if !ok {
		return nil, fmt.Errorf("report: CC workload missing")
	}
	metric := metrics.Energy
	var alphas []float64
	for alpha := 0.0; alpha <= 1+1e-9; alpha += step {
		alphas = append(alphas, vmath.Clamp(alpha, 0, 1))
	}
	pts := make([]Fig1Point, len(alphas))
	err := par.ForEach(context.Background(), len(alphas), 0, func(ctx context.Context, i int) error {
		a := alphas[i]
		res, err := sched.FixedAlpha(a).Run(ctx, cc, spec, nil, metric, seed)
		if err != nil {
			return err
		}
		pts[i] = Fig1Point{Alpha: a, EnergyJ: res.EnergyJ, Seconds: res.Duration.Seconds()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// BestFig1 returns the α minimizing energy and the α minimizing time
// from a Fig. 1 sweep.
func BestFig1(pts []Fig1Point) (bestEnergyAlpha, bestTimeAlpha float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	be, bt := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.EnergyJ < be.EnergyJ {
			be = p
		}
		if p.Seconds < bt.Seconds {
			bt = p
		}
	}
	return be.Alpha, bt.Alpha
}

// RenderFig1 writes the sweep as a table.
func RenderFig1(w io.Writer, pts []Fig1Point) {
	fmt.Fprintln(w, "Figure 1: Connected Components on the desktop, varying GPU offload %")
	fmt.Fprintf(w, "%8s %14s %12s\n", "GPU %", "energy (J)", "time (s)")
	for _, p := range pts {
		fmt.Fprintf(w, "%7.0f%% %14.1f %12.3f\n", p.Alpha*100, p.EnergyJ, p.Seconds)
	}
	be, bt := BestFig1(pts)
	fmt.Fprintf(w, "min energy at %.0f%% GPU, best performance at %.0f%% GPU\n", be*100, bt*100)
}

// SortedCurveKeys returns a model's category keys in stable order
// (helper for the characterization tools).
func SortedCurveKeys(m *powerchar.Model) []string {
	keys := make([]string, 0, len(m.Curves))
	for k := range m.Curves {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

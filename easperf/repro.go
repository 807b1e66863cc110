package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/report"
)

// figure names one of the paper's Figs. 9-12.
type figure struct{ platform, metric string }

var figures = []figure{
	{"desktop", "edp"},    // Figure 9
	{"desktop", "energy"}, // Figure 10
	{"tablet", "edp"},     // Figure 11
	{"tablet", "energy"},  // Figure 12
}

// reproWorkload runs the paper's evaluation: each operation is one
// report.EvaluateCtx call for one of Figs. 9-12 at the next seed of a
// sequence derived from the benchmark seed. It never touches the
// runtime layers (admission, obs, ws, cl, statestore).
type reproWorkload struct {
	seeds []int64
	// warmSeed seeds the warm-up evaluation, outside the op sequence.
	warmSeed int64
}

const reproOpsLen = 1 << 12

func newRepro(seed int64) *reproWorkload {
	w := &reproWorkload{seeds: make([]int64, reproOpsLen)}
	// Seeds stay clear of 0, which report maps to its default seed.
	base := 1_000_000 + (seed&0xffffff)*reproOpsLen*2
	w.warmSeed = base - 1
	for i := range w.seeds {
		w.seeds[i] = base + int64(i)
	}
	return w
}

func (w *reproWorkload) clients() int  { return 1 }
func (w *reproWorkload) rateHint() int { return 20 }

// blocks is 1: a block of a few dozen figure evaluations is too few
// for its own latency quantiles.
func (w *reproWorkload) blocks() int { return 1 }

// reproFigure is the figure operation i evaluates: the four figures in
// turn, so each takes a quarter of every run.
func reproFigure(i int) figure { return figures[i%len(figures)] }

func (w *reproWorkload) setUp(tr *tracer, _ bool) error {
	// Characterize both platforms; the report layer resolves its models
	// through the same process-wide cache.
	if _, err := characterize(tr, eas.DesktopPlatform()); err != nil {
		return err
	}
	sp := tr.begin(0, "Characterize", -1)
	_, err := eas.Characterize(eas.TabletPlatform())
	tr.end(0, sp)
	if err != nil {
		return err
	}
	_, _, err = evaluate(tr, 0, -1, figures[0], w.warmSeed)
	return err
}

func (w *reproWorkload) op(c, i int, tr *tracer) (time.Duration, error) {
	f := reproFigure(i)
	fig, d, err := evaluate(tr, c, i, f, w.seeds[i%len(w.seeds)])
	if err != nil {
		return d, err
	}
	return d, checkFigure(fig)
}

func (w *reproWorkload) finish(*tracer) (int, []error) { return 0, nil }

// evaluate wraps report.EvaluateCtx in a harness span.
func evaluate(tr *tracer, c, op int, f figure, seed int64) (*report.EfficiencyFigure, time.Duration, error) {
	sp := tr.begin(c, "EvaluateCtx", op)
	t0 := time.Now()
	fig, err := report.EvaluateCtx(context.Background(), f.platform, f.metric, report.Options{Seed: seed})
	d := time.Since(t0)
	tr.end(c, sp)
	return fig, d, err
}

// checkFigure verifies that every cell is finite and positive and that
// each Oracle scores 100% against itself.
func checkFigure(fig *report.EfficiencyFigure) error {
	for _, wl := range fig.Workloads {
		o := fig.Oracle[wl]
		if !finitePos(o.Value) {
			return checkf("%s %s: oracle value %v", fig.ID, wl, o.Value)
		}
		if eff := metrics.Efficiency(o.Value, o.Value); math.Abs(eff-100) > 1e-9 {
			return checkf("%s %s: oracle efficiency %v%%", fig.ID, wl, eff)
		}
		for _, s := range fig.Strategies {
			c, ok := fig.Cells[wl][s]
			if !ok || !finitePos(c.Value) || !finitePos(c.EfficiencyPct) {
				return checkf("%s %s/%s: cell value %v efficiency %v", fig.ID, wl, s, c.Value, c.EfficiencyPct)
			}
		}
	}
	return nil
}

func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// paperCheck renders Table 1 and Figs. 9-12 at report.DefaultSeed and
// compares them byte for byte with the repository's golden output. It
// returns the mean EAS efficiency against the Oracle over the four
// figures, and the mean simulated EDP (J·s) of the EAS cells of the two
// EDP figures.
func paperCheck() (easPct, easEDP float64, err error) {
	var b strings.Builder
	rows, err := report.Table1(0)
	if err != nil {
		return 0, 0, err
	}
	report.RenderTable1(&b, rows)
	b.WriteString("\n")
	var edpSum float64
	var edpN int
	for _, f := range figures {
		fig, err := report.EvaluateCtx(context.Background(), f.platform, f.metric, report.Options{})
		if err != nil {
			return 0, 0, err
		}
		if err := checkFigure(fig); err != nil {
			return 0, 0, err
		}
		if err := fig.Render(&b); err != nil {
			return 0, 0, err
		}
		b.WriteString("\n")
		easPct += fig.Average("EAS") / float64(len(figures))
		if f.metric == "edp" {
			for _, wl := range fig.Workloads {
				edpSum += fig.Cells[wl]["EAS"].Value
				edpN++
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("internal", "report", "testdata", "easbench.golden"))
	if err != nil {
		return 0, 0, fmt.Errorf("reading the golden evaluation output: %w", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				return easPct, 0, checkf("figures differ from the golden output at line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		return easPct, 0, checkf("figures have %d lines, golden output %d", len(gl), len(wl))
	}
	return easPct, edpSum / float64(edpN), nil
}

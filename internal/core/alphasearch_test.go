package core

import (
	"context"
	"math"
	"testing"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/wclass"
)

// TestFineGridNeverWorse checks the hard guarantee behind a fine
// AlphaStep: every point of the paper's 0.1 grid is also a point of the
// 0.0005 grid, so on every fitted desktop curve, metric, and a range of
// device-throughput ratios the block-pruned fine search returns an
// objective no worse than the plain 0.1 grid.
func TestFineGridNeverWorse(t *testing.T) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tms := []TimeModel{
		{RC: 7.5e6, RG: 1.4e7},
		{RC: 2e7, RG: 5e6},
		{RC: 1e6, RG: 1e6},
		{RC: 0, RG: 1e7},
		{RC: 1e7, RG: 0},
	}
	for _, cat := range wclass.All() {
		curve, ok := model.Curve(cat)
		if !ok {
			t.Fatalf("model missing curve for %s", cat)
		}
		for _, metric := range []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P} {
			for _, tm := range tms {
				_, coarse := BestAlpha(curve, tm, 1e6, metric, 0.1)
				_, fine := BestAlpha(curve, tm, 1e6, metric, 0.0005)
				if fine > coarse {
					t.Errorf("%s/%s RC=%g RG=%g: fine grid %v worse than coarse %v",
						cat, metric, tm.RC, tm.RG, fine, coarse)
				}
			}
		}
	}
}

// TestBestAlphaFineGridOnOptimumWhenFlat keeps the block-pruned fine
// search honest on degenerate objectives: with flat power and symmetric
// throughputs the optimum αPERF = 0.5 lies on both grids, and the fine
// search must land on it exactly rather than on a neighbour its block
// bounds could not separate.
func TestBestAlphaFineGridOnOptimumWhenFlat(t *testing.T) {
	m := TimeModel{RC: 1e6, RG: 1e6}
	aCoarse, vCoarse := BestAlpha(flatCurve(40), m, 1e5, metrics.EDP, 0.1)
	aFine, vFine := BestAlpha(flatCurve(40), m, 1e5, metrics.EDP, 0.0005)
	if aCoarse != 0.5 || aFine != 0.5 {
		t.Errorf("α = %v on the 0.1 grid, %v on the 0.0005 grid, want 0.5 on both", aCoarse, aFine)
	}
	if vFine != vCoarse {
		t.Errorf("fine objective %v, coarse %v, want equal at the shared optimum", vFine, vCoarse)
	}
}

// TestAlphaSearchNoAllocs pins the hot path's allocation budget to
// zero: the objective closure and the search must stay on the stack,
// on the paper's 0.1 grid and on the 0.0005 grid, whose block-pruned
// search keeps its block bounds in a fixed stack array. One α decision
// runs per scheduled invocation, so a single heap allocation here would
// show up in every workload.
func TestAlphaSearchNoAllocs(t *testing.T) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	curve, _ := model.Curve(wclass.Category{Memory: true})
	tm := TimeModel{RC: 7.5e6, RG: 1.4e7}
	var sink float64
	for _, step := range []float64{0.1, 0.0005} {
		if n := testing.AllocsPerRun(100, func() {
			a, _ := BestAlpha(curve, tm, 1e6, metrics.EDP, step)
			sink += a
		}); n != 0 {
			t.Errorf("BestAlpha(step %v) allocates %.0f objects/op, want 0", step, n)
		}
	}
	_ = sink
}

// TestBestAlphaInvalidStep checks that every step outside (0, 1] —
// NaN included, which fails both halves of a "step <= 0 || step > 1"
// test — searches the paper's 0.1 grid.
func TestBestAlphaInvalidStep(t *testing.T) {
	// αPERF = 0.6 is on the 0.1 grid and far from the endpoints a
	// 2-point grid would pick from.
	curve := flatCurve(40)
	tm := TimeModel{RC: 100, RG: 150}
	const n = 1e6
	wantA, wantV := BestAlpha(curve, tm, n, metrics.EDP, 0.1)
	for _, step := range []float64{0, -0.5, 1.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		if a, v := BestAlpha(curve, tm, n, metrics.EDP, step); a != wantA || v != wantV {
			t.Errorf("BestAlpha(step %v) = (%v, %v), want the 0.1 grid's (%v, %v)", step, a, v, wantA, wantV)
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/microbench"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/vmath"
	"github.com/hetsched/eas/internal/wclass"
)

// namedCurve is a power curve with a label for failure messages.
type namedCurve struct {
	name  string
	curve powerchar.Curve
}

// characterizedCurves returns every fitted curve of both platforms.
func characterizedCurves(tb testing.TB) []namedCurve {
	tb.Helper()
	var out []namedCurve
	for _, spec := range []platform.Spec{platform.DesktopSpec(), platform.TabletSpec()} {
		model, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		for _, cat := range wclass.All() {
			c, ok := model.Curve(cat)
			if !ok {
				tb.Fatalf("%s model missing curve for %s", spec.Name, cat.Key())
			}
			out = append(out, namedCurve{spec.Name + "/" + cat.Key(), c})
		}
	}
	return out
}

// decideCase is one class of the easperf decide workload: the desktop
// characterization micro-benchmark's alone-run throughputs, at one of
// the workload's per-variant cost scales, and its sized n.
type decideCase struct {
	category wclass.Category
	tm       TimeModel
	n        float64
}

// decideCases mirrors the kernel mix of the easperf decide workload:
// each micro-benchmark class at cost scales 0.9-1.1 and n within ±15%
// of its sized count.
func decideCases(tb testing.TB) []decideCase {
	tb.Helper()
	suite, err := microbench.Suite(platform.DesktopSpec())
	if err != nil {
		tb.Fatal(err)
	}
	var out []decideCase
	for _, b := range suite {
		for _, scale := range []float64{0.9, 0.97, 1.03, 1.1} {
			tm := TimeModel{
				RC: float64(b.N) / b.CPUAloneSeconds / scale,
				RG: float64(b.N) / b.GPUAloneSeconds / scale,
			}
			for _, f := range []float64{0.85, 1, 1.15} {
				out = append(out, decideCase{b.Category, tm, float64(b.N) * f})
			}
		}
	}
	return out
}

// checkGridMinAlpha fails unless gridMinAlpha returns the bits of the
// closure-based reference vmath.GridMin(Objective(...)).
func checkGridMinAlpha(t *testing.T, label string, curve powerchar.Curve, tm TimeModel, n float64, met metrics.Metric, steps int) {
	t.Helper()
	gotA, gotV := gridMinAlpha(curve, tm, n, met, steps)
	wantA, wantV := vmath.GridMin(Objective(curve, tm, n, met), 0, 1, steps)
	if math.Float64bits(gotA) != math.Float64bits(wantA) || math.Float64bits(gotV) != math.Float64bits(wantV) {
		t.Fatalf("%s (coeffs=%v rc=%g rg=%g n=%g metric=%s steps=%d):\n  gridMinAlpha = (%v, %v)\n  GridMin      = (%v, %v)",
			label, curve.Coeffs, tm.RC, tm.RG, n, met.Name(), steps, gotA, gotV, wantA, wantV)
	}
}

// TestGridMinAlphaPrunedMatchesObjective pins the block-pruned search
// to the closure-based reference on the inputs where pruning is live
// or just switched off: every characterized curve, flat curves (ties),
// curves crossing zero and a curve too long for the stack array; grids
// at and around the pruning cutoff and at 2000, 2001 and 10000 steps;
// throughput ratios on both sides of the fallback limit; αPERF inside
// a block (the kink of T) and on a grid point; n from 10 to 1e7; and
// T* ties across a block boundary.
func TestGridMinAlphaPrunedMatchesObjective(t *testing.T) {
	curves := characterizedCurves(t)
	curves = append(curves,
		namedCurve{"flat", powerchar.Curve{Coeffs: []float64{40}}},
		namedCurve{"symmetric", powerchar.Curve{Coeffs: []float64{60, -100, 100}}},
		namedCurve{"zero", powerchar.Curve{Coeffs: []float64{0}}},
		namedCurve{"crossing", powerchar.Curve{Coeffs: []float64{10, -40}}},
		namedCurve{"dipping", powerchar.Curve{Coeffs: []float64{1, -8, 8}}},
		namedCurve{"deg8", powerchar.Curve{Coeffs: []float64{50, -10, 5, 1, 1, 1, 1, 1, 1}}},
	)
	// αPERF = 1000.5/2000 sits mid-block on the 2000-step grid, and
	// αPERF = 0.5 on a grid point of every even grid.
	kinkRG := 1e6 * 1000.5 / 999.5
	tms := []TimeModel{
		{RC: 6.24e6, RG: 2.304e7},
		{RC: 4.368e6, RG: 1.44e6},
		{RC: 1e6, RG: kinkRG},
		{RC: 1e6, RG: 1e6},
		{RC: 10, RG: 10 * pruneMaxRatio},
		{RC: 10, RG: math.Nextafter(10*pruneMaxRatio, math.Inf(1))},
		{RC: 3e7 * pruneMaxRatio, RG: 3e7},
		{RC: math.Nextafter(3e7*pruneMaxRatio, math.Inf(1)), RG: 3e7},
		{RC: 0, RG: 1e7},
	}
	stepGrid := []int{pruneMinSteps - 1, pruneMinSteps, pruneMinSteps + 1, 2000, 2001, 10000}
	ns := []float64{10, 1e3, 1e5, 1e7}
	mets := []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P}
	rng := rand.New(rand.NewSource(18))
	for _, nc := range curves {
		for ti, tm := range tms {
			for _, steps := range stepGrid {
				n := ns[rng.Intn(len(ns))]
				met := mets[rng.Intn(len(mets))]
				checkGridMinAlpha(t, fmt.Sprintf("%s tm#%d", nc.name, ti), nc.curve, tm, n, met, steps)
			}
		}
	}
	// T* ties across a block boundary: RG is chosen so that the last
	// point of one block and the first of the next have the same exact
	// T*, and only rounding orders them. This is where the bound's
	// rounding terms matter.
	for _, i := range []int{31, 63, 1951, 1983} {
		x1 := float64(i) / 2000
		x2 := float64(i+1) / 2000
		for trial := 0; trial < 50; trial++ {
			rc := 1e6 * (1 + rng.Float64())
			tm := TimeModel{RC: rc, RG: rc * x2 / (1 - x1)}
			n := 1e5 * (1 + rng.Float64())
			checkGridMinAlpha(t, fmt.Sprintf("boundary tie i=%d", i), powerchar.Curve{Coeffs: []float64{40}}, tm, n, metrics.EDP, 2000)
		}
	}
	// The decide workload's own inputs, every metric, at 0.0005.
	cases := decideCases(t)
	for _, nc := range curves {
		for _, dc := range cases {
			for _, met := range mets {
				checkGridMinAlpha(t, nc.name+" decide", nc.curve, dc.tm, dc.n, met, 2000)
			}
		}
	}
}

// TestGridMinAlphaPrunes checks that the block bound is tight enough to
// pay for itself. A bound that is valid but loose passes every
// exactness test and silently scans the whole grid again (a global
// Lipschitz bound kept all 63 blocks). At the decide workload's 0.0005
// step and throughputs, the search may scan at most 2 blocks when the
// curve is the kernel's own desktop class, as in the workload, and at
// most 12 of the 63 for any characterized curve.
func TestGridMinAlphaPrunes(t *testing.T) {
	const (
		steps          = 2000
		ownClassBlocks = 2
		anyCurveBlocks = 12
	)
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mets := []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P}
	evaluated := func(c powerchar.Curve, dc decideCase, met metrics.Metric) int {
		var g alphaGrid
		g.init(c, dc.tm, dc.n, met, steps)
		_, _, ev := g.search()
		return ev
	}
	cases := decideCases(t)
	for _, dc := range cases {
		own, _ := model.Curve(dc.category)
		for _, met := range mets {
			if ev := evaluated(own, dc, met); ev > ownClassBlocks*alphaBlock {
				t.Errorf("%s rc=%g rg=%g n=%g %s: evaluated %d of %d points, want at most %d blocks of %d",
					dc.category.Key(), dc.tm.RC, dc.tm.RG, dc.n, met.Name(), ev, steps+1, ownClassBlocks, alphaBlock)
			}
		}
	}
	for _, nc := range characterizedCurves(t) {
		for _, dc := range cases {
			for _, met := range mets {
				if ev := evaluated(nc.curve, dc, met); ev > anyCurveBlocks*alphaBlock {
					t.Errorf("%s curve, %s rc=%g rg=%g n=%g %s: evaluated %d of %d points, want at most %d blocks of %d",
						nc.name, dc.category.Key(), dc.tm.RC, dc.tm.RG, dc.n, met.Name(), ev, steps+1, anyCurveBlocks, alphaBlock)
				}
			}
		}
	}
}

// FuzzGridMinAlpha checks that gridMinAlpha returns the bits of
// vmath.GridMin(Objective(...)) on arbitrary curves of degree ≤ 6,
// throughputs, n, metrics and grids up to 12000 steps. The seeds are
// the desktop curves at the decide workload's throughputs.
func FuzzGridMinAlpha(f *testing.F) {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		f.Fatal(err)
	}
	suite, err := microbench.Suite(platform.DesktopSpec())
	if err != nil {
		f.Fatal(err)
	}
	for i, b := range suite {
		c, _ := model.Curve(b.Category)
		var k [7]float64
		copy(k[:], c.Coeffs)
		f.Add(k[0], k[1], k[2], k[3], k[4], k[5], k[6], uint8(len(c.Coeffs)-1),
			float64(b.N)/b.CPUAloneSeconds, float64(b.N)/b.GPUAloneSeconds, float64(b.N),
			uint16(2000), uint8(i))
	}
	f.Add(40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 1e6, 1e6, 1e5, uint16(2001), uint8(1))
	f.Add(10.0, -40.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(1), 1e3, 1e9, 10.0, uint16(pruneMinSteps), uint8(2))
	custom := metrics.New("inv-perf", func(p, tm float64) float64 { return tm * math.Sqrt(p) })
	mets := []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P, custom}
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5, c6 float64, deg uint8, rc, rg, n float64, steps uint16, met uint8) {
		coeffs := []float64{c0, c1, c2, c3, c4, c5, c6}[:deg%7+1]
		checkGridMinAlpha(t, "fuzz", powerchar.Curve{Coeffs: coeffs}, TimeModel{RC: rc, RG: rg}, n,
			mets[int(met)%len(mets)], int(steps)%12001)
	})
}

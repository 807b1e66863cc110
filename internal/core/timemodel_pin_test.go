package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/vmath"
)

// TestGridMinAlphaMatchesObjective pins the hoisted α-grid search to the
// closure-based reference it replaces: for randomized curves, time
// models, metrics, and grid resolutions, gridMinAlpha must return a
// result bit-identical to vmath.GridMin over Objective — same argmin,
// same minval, down to the float64 representation. Any reordering of
// the inlined arithmetic that changes rounding shows up here.
func TestGridMinAlphaMatchesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	custom := metrics.New("inv-perf", func(p, tm float64) float64 { return tm * math.Sqrt(p) })
	mets := []metrics.Metric{metrics.Energy, metrics.EDP, metrics.ED2P, custom}
	stepGrid := []int{1, 2, 3, 7, 10, 100, 2000}

	randThroughput := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 10
		default:
			return rng.Float64() * 1e7
		}
	}

	for trial := 0; trial < 500; trial++ {
		deg := rng.Intn(5)
		coeffs := make([]float64, deg+1)
		for i := range coeffs {
			coeffs[i] = (rng.Float64() - 0.3) * 20
		}
		curve := powerchar.Curve{Coeffs: coeffs}
		tm := TimeModel{RC: randThroughput(), RG: randThroughput()}
		var n float64
		switch rng.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = -rng.Float64() * 100
		default:
			n = rng.Float64() * 1e6
		}
		met := mets[rng.Intn(len(mets))]
		steps := stepGrid[rng.Intn(len(stepGrid))]

		gotA, gotV := gridMinAlpha(curve, tm, n, met, steps)
		wantA, wantV := vmath.GridMin(Objective(curve, tm, n, met), 0, 1, steps)
		if math.Float64bits(gotA) != math.Float64bits(wantA) || math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("trial %d (coeffs=%v rc=%g rg=%g n=%g metric=%s steps=%d):\n  gridMinAlpha = (%v, %v)\n  GridMin      = (%v, %v)",
				trial, coeffs, tm.RC, tm.RG, n, met.Name(), steps, gotA, gotV, wantA, wantV)
		}
	}
}

// Package core implements the paper's primary contribution: the
// energy-aware scheduler (EAS) that partitions data-parallel work
// between the CPU and GPU of an integrated processor to minimize a
// user-chosen energy metric, combining the platform's offline power
// characterization with lightweight online profiling (Fig. 7 of the
// paper).
package core

import (
	"math"

	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/vmath"
)

// TimeModel is the analytic execution-time model of §3.2 (equations
// 1-4), parameterized by the combined-mode device throughputs measured
// during online profiling.
type TimeModel struct {
	// RC and RG are CPU and GPU throughputs in items/second while both
	// devices execute (combined mode).
	RC, RG float64
}

// Valid reports whether at least one device has measurable throughput.
func (m TimeModel) Valid() bool { return m.RC > 0 || m.RG > 0 }

// AlphaPerf returns the performance-optimal offload ratio of eq. (2):
// α = R_G / (R_C + R_G), at which both devices finish simultaneously.
func (m TimeModel) AlphaPerf() float64 {
	if !m.Valid() {
		return 0
	}
	return m.RG / (m.RC + m.RG)
}

// CombinedTime returns T_CG(α) of eq. (1): the time both devices spend
// executing together when n items are split with ratio alpha.
func (m TimeModel) CombinedTime(alpha, n float64) float64 {
	if n <= 0 {
		return 0
	}
	cpuSide := safeDiv((1-alpha)*n, m.RC)
	gpuSide := safeDiv(alpha*n, m.RG)
	return math.Min(cpuSide, gpuSide)
}

// Time returns T(α) of eq. (4): total time to process n items at
// offload ratio alpha — the combined phase plus the single-device tail.
// Offloading to a device with zero measured throughput yields +Inf.
func (m TimeModel) Time(alpha, n float64) float64 {
	if n <= 0 {
		return 0
	}
	alpha = vmath.Clamp(alpha, 0, 1)
	if alpha > 0 && m.RG <= 0 {
		return math.Inf(1)
	}
	if alpha < 1 && m.RC <= 0 {
		return math.Inf(1)
	}
	tcg := m.CombinedTime(alpha, n)
	rem := n - tcg*(m.RC+m.RG)
	if rem <= 0 {
		return tcg
	}
	// Eq. (4): tail on the GPU for α ≥ αPERF, on the CPU otherwise —
	// falling back to whichever device actually has throughput when
	// one side is unmeasured.
	if alpha >= m.AlphaPerf() && m.RG > 0 {
		return tcg + rem/m.RG
	}
	if m.RC > 0 {
		return tcg + rem/m.RC
	}
	return tcg + safeDiv(rem, m.RG)
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return a / b
}

// Objective builds the target function OBJ(α) = metric(P(α), T(α)) for
// the α search, from a fitted power curve and the time model.
func Objective(curve powerchar.Curve, tm TimeModel, n float64, metric metrics.Metric) func(alpha float64) float64 {
	return func(alpha float64) float64 {
		t := tm.Time(alpha, n)
		if math.IsInf(t, 1) {
			return math.Inf(1)
		}
		return metric.Eval(curve.Power(alpha), t)
	}
}

// BestAlpha performs the grid search of Fig. 7 step 20: evaluate the
// objective at α = 0, step, 2·step … 1 and return the minimizer. The
// paper uses step = 0.1; finer steps are exposed for the ablation
// study. A step outside (0, 1], NaN included, selects 0.1. On the
// paper's 11-point grid the search costs the 1-2 µs per-decision
// overhead the paper reports; finer grids take gridMinAlpha's pruned
// search.
func BestAlpha(curve powerchar.Curve, tm TimeModel, n float64, metric metrics.Metric, step float64) (alpha, objective float64) {
	return gridMinAlpha(curve, tm, n, metric, gridSteps(step))
}

// gridSteps turns an α step into the grid's interval count, mapping
// every step outside (0, 1] — NaN included — to the paper's 0.1.
func gridSteps(step float64) int {
	if !(step > 0 && step <= 1) {
		step = 0.1
	}
	return int(math.Round(1 / step))
}

// Parameters of gridMinAlpha's block-pruned search.
const (
	// alphaBlock is the target number of grid points per block, and
	// pruneMinSteps the smallest grid that is split into blocks: the
	// paper's 11-point grid and other small grids are scanned outright.
	alphaBlock    = 32
	pruneMinSteps = 4 * alphaBlock
	// alphaMaxBlocks caps the stack array of block bounds; larger grids
	// get proportionally larger blocks.
	alphaMaxBlocks = 128
	// pruneMaxCoeffs is the largest curve (degree + 1) whose Taylor
	// shift fits the stack array.
	pruneMaxCoeffs = 8
	// pruneMaxRatio is the largest RC/RG or RG/RC that pruneTimeMargin
	// covers, and pruneMinMag/pruneMaxMag keep n, RC and RG where every
	// intermediate of T(α) stays a normal float64.
	pruneMaxRatio = 1e6
	pruneMinMag   = 1e-100
	pruneMaxMag   = 1e100
	// pruneTimeMargin is the relative amount by which the float64 T(α)
	// of the scan may fall below the exact T*(α); see timeLowerBound.
	pruneTimeMargin = 1e-8
	// unitRoundoff is u = 2⁻⁵³, the float64 relative rounding error.
	unitRoundoff = 0x1p-53
)

// gridMinAlpha is vmath.GridMin over Objective(curve, tm, n, metric) on
// [0, 1] with the per-point invariants hoisted out of the loop, and the
// (argmin, minval) pair it returns is bit-identical to
// vmath.GridMin(Objective(...), 0, 1, steps) — pinned by
// TestGridMinAlphaMatchesObjective, TestGridMinAlphaPrunedMatchesObjective
// and FuzzGridMinAlpha. Small grids, the paper's 0.1 step among them,
// are scanned point by point; finer grids run an exact branch and bound
// over blocks of the grid (alphaGrid.search).
func gridMinAlpha(curve powerchar.Curve, tm TimeModel, n float64, metric metrics.Metric, steps int) (argmin, minval float64) {
	var g alphaGrid
	g.init(curve, tm, n, metric, steps)
	argmin, minval, _ = g.search()
	return argmin, minval
}

// alphaGrid holds one α search's invariants: the throughput sum, αPERF,
// the curve's coefficient slice, and the metric's standard-form
// exponent.
type alphaGrid struct {
	coeffs         []float64
	metric         metrics.Metric
	kind           int
	n, rc, rg      float64
	sum, alphaPerf float64
	steps          int
}

func (g *alphaGrid) init(curve powerchar.Curve, tm TimeModel, n float64, metric metrics.Metric, steps int) {
	g.coeffs = curve.Coeffs
	g.metric = metric
	g.kind = metric.TimeExponent()
	g.n, g.rc, g.rg = n, tm.RC, tm.RG
	g.sum = tm.RC + tm.RG
	g.alphaPerf = tm.AlphaPerf()
	g.steps = max(steps, 1)
}

// scan evaluates the objective at grid indices lo..hi in ascending
// order, continuing the running minimum (argmin, minval) with GridMin's
// strict-< rule. Every floating-point operation matches the
// closure-based evaluation in order and operand.
func (g *alphaGrid) scan(lo, hi int, argmin, minval float64) (float64, float64) {
	rc, rg, n, sum, alphaPerf := g.rc, g.rg, g.n, g.sum, g.alphaPerf
	coeffs, kind, steps := g.coeffs, g.kind, float64(g.steps)
	inf := math.Inf(1)
	for i := lo; i <= hi; i++ {
		// GridMin's abscissa on [0, 1]: 0 + (1-0)·i/steps. Adding 0
		// and scaling by 1 are exact, so plain i/steps is the
		// identical float64, and x ∈ [0,1] makes Time's and Power's
		// clamps the identity.
		x := float64(i) / steps
		var t float64
		switch {
		case n <= 0:
			t = 0
		case x > 0 && rg <= 0:
			t = inf
		case x < 1 && rc <= 0:
			t = inf
		default:
			tcg := math.Min(safeDiv((1-x)*n, rc), safeDiv(x*n, rg))
			rem := n - tcg*sum
			switch {
			case rem <= 0:
				t = tcg
			case x >= alphaPerf && rg > 0:
				t = tcg + rem/rg
			case rc > 0:
				t = tcg + rem/rc
			default:
				t = tcg + safeDiv(rem, rg)
			}
		}
		var v float64
		if math.IsInf(t, 1) {
			v = inf
		} else {
			p := 0.0
			for j := len(coeffs) - 1; j >= 0; j-- {
				p = p*x + coeffs[j]
			}
			switch kind {
			case 1:
				v = p * t
			case 2:
				v = p * t * t
			case 3:
				v = p * t * t * t
			default:
				v = g.metric.Eval(p, t)
			}
		}
		if v < minval {
			minval = v
			argmin = x
		}
	}
	return argmin, minval
}

// prunable reports whether search may bound blocks instead of scanning
// every point: a fine grid, a standard P·Tᵏ metric, n and both
// throughputs finite, positive and within the magnitudes and ratio the
// time margin was derived for, and a finite curve that fits the stack
// array. It returns the curve's absolute coefficient sum.
func (g *alphaGrid) prunable() (sumAbs float64, ok bool) {
	if g.steps < pruneMinSteps || g.kind < 1 || g.kind > 3 ||
		len(g.coeffs) == 0 || len(g.coeffs) > pruneMaxCoeffs {
		return 0, false
	}
	for _, v := range [...]float64{g.n, g.rc, g.rg} {
		if !(v >= pruneMinMag && v <= pruneMaxMag) {
			return 0, false
		}
	}
	if g.rc > pruneMaxRatio*g.rg || g.rg > pruneMaxRatio*g.rc {
		return 0, false
	}
	for _, c := range g.coeffs {
		sumAbs += math.Abs(c)
	}
	return sumAbs, sumAbs <= 1e300
}

// search returns the grid minimum and the number of grid points it
// evaluated. When the grid is prunable it splits the points into
// blocks and bounds the float-evaluated objective from below on each
// block (blockBounder.bound). It scans the block with the smallest
// bound to get an attained value U, then scans, in ascending index
// order, every block whose bound is not strictly greater than U. A
// skipped point has v > U ≥ the grid minimum, so it can be neither the
// minimum nor an earlier index attaining it, and the ascending strict-<
// scan over the rest returns GridMin's (argmin, minval) bit for bit.
func (g *alphaGrid) search() (argmin, minval float64, evaluated int) {
	inf := math.Inf(1)
	sumAbs, ok := g.prunable()
	if !ok {
		argmin, minval = g.scan(0, g.steps, 0, inf)
		return argmin, minval, g.steps + 1
	}
	points := g.steps + 1
	nb := min((points+alphaBlock-1)/alphaBlock, alphaMaxBlocks)
	size := (points + nb - 1) / nb
	nb = (points + size - 1) / size
	bb := newBlockBounder(g, size, sumAbs)
	var bounds [alphaMaxBlocks]float64
	best := 0
	for k := 0; k < nb; k++ {
		lo, hi := k*size, min((k+1)*size, points)-1
		bounds[k] = bb.bound(lo, hi)
		if bounds[k] < bounds[best] {
			best = k
		}
	}
	blo, bhi := best*size, min((best+1)*size, points)-1
	bestArg, bestVal := g.scan(blo, bhi, 0, inf)
	evaluated = bhi - blo + 1
	argmin, minval = 0, inf
	for k := 0; k < nb; k++ {
		switch {
		case k == best:
			if bestVal < minval {
				argmin, minval = bestArg, bestVal
			}
		case !(bounds[k] > bestVal):
			lo, hi := k*size, min((k+1)*size, points)-1
			argmin, minval = g.scan(lo, hi, argmin, minval)
			evaluated += hi - lo + 1
		}
	}
	return argmin, minval, evaluated
}

// blockBounder computes lower bounds on the float-evaluated objective
// P(x)·T(x)ᵏ over blocks of the grid.
//
// Power: the curve's coefficients are Taylor-shifted to the block
// midpoint m (Ruffini-Horner, O(d²)), P(m+s) = Σ q_j s^j, so on
// |s| ≤ r (the block half-width) P ≥ q₀ − Σ_{j≥1} |q_j| r^j. slack
// covers every rounding error. On [0, 1] the scan's Horner evaluation
// of P is within 2d·u·Σ|c_j|, each term of a shifted q_j passes through
// at most 3d roundings, and the bound's own powers, sum and
// subtractions add about (2d+7)·u·Σ|c_j|: about 7·(d+1)·u·Σ|c_j| in
// all. slack is 64·(d+1)·u·Σ|c_j|, plus 1e-300 for underflow.
//
// Time: see timeLowerBound.
//
// Both factors are positive, and float64 multiplication rounds
// monotonically, so multiplying the bounds in the scan's own order
// gives a value no larger than any point's objective.
type blockBounder struct {
	coeffs   []float64
	rpow     [pruneMaxCoeffs]float64
	slack    float64
	nrc, nrg float64
	kind     int
	steps    float64
}

// newBlockBounder prepares the bounds for blocks of at most size grid
// points of g.
func newBlockBounder(g *alphaGrid, size int, sumAbs float64) blockBounder {
	bb := blockBounder{
		coeffs: g.coeffs,
		slack:  64*float64(len(g.coeffs))*unitRoundoff*sumAbs + 1e-300,
		nrc:    g.n / g.rc,
		nrg:    g.n / g.rg,
		kind:   g.kind,
		steps:  float64(g.steps),
	}
	// The half-width of a full block; a shorter last block is covered
	// too. 1e-15 covers the rounding of the block ends, the midpoint
	// and r itself.
	r := float64(size-1)/bb.steps*0.5 + 1e-15
	bb.rpow[0] = 1
	for j := 1; j < len(g.coeffs); j++ {
		bb.rpow[j] = bb.rpow[j-1] * r
	}
	return bb
}

// bound returns a lower bound on the objective at grid points lo..hi,
// or -Inf when the power bound is not positive (such a block is always
// scanned).
func (bb *blockBounder) bound(lo, hi int) float64 {
	a := float64(lo) / bb.steps
	b := float64(hi) / bb.steps
	m := (a + b) * 0.5
	var q [pruneMaxCoeffs]float64
	d := copy(q[:], bb.coeffs) - 1
	for i := 0; i < d; i++ {
		for j := d - 1; j >= i; j-- {
			q[j] += m * q[j+1]
		}
	}
	s := 0.0
	for j := 1; j <= d; j++ {
		s += math.Abs(q[j]) * bb.rpow[j]
	}
	p := q[0] - s - bb.slack
	if !(p > 0) {
		return math.Inf(-1)
	}
	t := bb.timeLowerBound(a, b)
	switch bb.kind {
	case 1:
		return p * t
	case 2:
		return p * t * t
	default:
		return p * t * t * t
	}
}

// timeLowerBound returns a lower bound on the scan's float64 T(x) for
// x ∈ [a, b]. Eqs. 1-4 reduce to T*(α) = max((1−α)n/R_C, αn/R_G): the
// combined phase runs until the faster side finishes and the tail
// drains the rest at the slower side's rate. Over [a, b] that gives
// T* ≥ max((1−b)n/R_C, a·n/R_G). The float64 evaluation can fall
// below T* where eq. 4's remainder n − T_CG·(R_C+R_G) cancels near
// αPERF, and where the float αPERF puts x on the other branch; both
// undershoots are within about 16·u·(1 + R_C/R_G + R_G/R_C) relative,
// which pruneTimeMargin covers with room to spare while the ratio
// stays within pruneMaxRatio.
func (bb *blockBounder) timeLowerBound(a, b float64) float64 {
	t := (1 - b) * bb.nrc
	if g := a * bb.nrg; g > t {
		t = g
	}
	return t * (1 - pruneTimeMargin)
}

package vmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridMinQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.3) * (x - 0.3) }
	arg, val := GridMin(f, 0, 1, 10)
	if !AlmostEqual(arg, 0.3, 1e-12) {
		t.Errorf("argmin = %v, want 0.3", arg)
	}
	if !AlmostEqual(val, 0, 1e-12) {
		t.Errorf("minval = %v, want 0", val)
	}
}

func TestGridMinEndpoints(t *testing.T) {
	// Monotone decreasing → min at hi.
	arg, _ := GridMin(func(x float64) float64 { return -x }, 0, 1, 10)
	if arg != 1 {
		t.Errorf("argmin = %v, want 1", arg)
	}
	// Monotone increasing → min at lo.
	arg, _ = GridMin(func(x float64) float64 { return x }, 0, 1, 10)
	if arg != 0 {
		t.Errorf("argmin = %v, want 0", arg)
	}
}

func TestGridMinTieBreaksLow(t *testing.T) {
	// Flat function: scan should keep the first (lowest) point.
	arg, _ := GridMin(func(x float64) float64 { return 42 }, 0, 1, 10)
	if arg != 0 {
		t.Errorf("argmin = %v, want 0 on ties", arg)
	}
}

func TestGridMinDegenerateSteps(t *testing.T) {
	arg, val := GridMin(func(x float64) float64 { return x * x }, 0, 1, 0)
	if arg != 0 || val != 0 {
		t.Errorf("steps=0: got (%v, %v), want (0, 0)", arg, val)
	}
}

// Property: GridMin's result is never worse than any grid point.
func TestGridMinIsGridOptimalProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		a, b, c = math.Mod(a, 10), math.Mod(b, 10), math.Mod(c, 10)
		fn := func(x float64) float64 { return a*x*x + b*x + c }
		arg, val := GridMin(fn, 0, 1, 20)
		for i := 0; i <= 20; i++ {
			x := float64(i) / 20
			if fn(x) < val-1e-12 {
				return false
			}
		}
		return AlmostEqual(fn(arg), val, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	if Lerp(2, 4, 0.5) != 3 || Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Error("Lerp misbehaves")
	}
}

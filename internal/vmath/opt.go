package vmath

import "math"

// GridMin evaluates f on the closed interval [lo, hi] at uniform steps
// and returns the argmin and minimum value. steps is the number of
// intervals, so steps+1 points are evaluated; the paper's scheduler uses
// steps = 10 (α increments of 0.1). Ties are broken toward the smaller
// argument, matching a low-to-high scan.
func GridMin(f func(float64) float64, lo, hi float64, steps int) (argmin, minval float64) {
	if steps < 1 {
		steps = 1
	}
	argmin = lo
	minval = math.Inf(1)
	for i := 0; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/float64(steps)
		v := f(x)
		if v < minval {
			minval = v
			argmin = x
		}
	}
	return argmin, minval
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b by t ∈ [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

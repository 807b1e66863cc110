// Package faultinject provides a deterministic, seedable fault plan
// for the simulated GPU driver and execution engine. The scheduling
// runtime's degradation paths — GPU owned by another application,
// kernels that hang in hardware, transient enqueue failures, devices
// running below their rated speed — are all rare on a healthy machine,
// so without injection they would be untestable. A Plan scripts them.
//
// Beyond execution faults, a Plan also scripts sensor faults — the
// inputs every scheduling decision flows from: a stuck or noisy
// MSR_PKG_ENERGY_STATUS counter, an energy jump exceeding the 32-bit
// wrap horizon, dropped or corrupt hardware-counter snapshots, and a
// profiler whose measured throughputs lie — plus a scheduling fault
// (an invocation wedged holding the admission gate) and persistence
// faults (failed, torn or disk-full WAL appends). The
// telemetry-robustness layer (internal/robust, profile sanitization)
// is tested exclusively through these.
//
// Every fault is one value of the Fault enumeration, and the plan
// keeps one knob per fault: a scripted remaining count, a seeded
// probability and one parameter (a slowdown factor, a lie factor, a
// gap in joules, a hold in nanoseconds). The two ways of arming a
// fault compose:
//
//   - Script(f, k, param): "the next k GPU dispatches observe a busy
//     device", consumed in FIFO order by the layer that owns the
//     fault; and
//   - SetProb(f, p): "each enqueue fails with probability p", drawn
//     from a PRNG seeded at construction so a chaos run replays
//     bit-for-bit.
//
// Consumers (internal/engine for busy/slow, internal/cl for enqueue
// errors and hangs, internal/hwc, internal/profile, internal/core for
// admission holds, internal/statestore for WAL faults) call Take(f) at
// each decision point; a nil *Plan is inert and costs one branch. The
// MSR faults and read noise act through WrapEnergy instead.
package faultinject

import (
	"math/rand"
	"sync"
)

// Fault names one injectable fault.
type Fault int

// The faults a plan can deliver. A parameter, where a fault has one,
// is given to Script and returned by Take.
const (
	// GPUBusy: a simulated GPU dispatch finds the device owned by
	// another application.
	GPUBusy Fault = iota
	// KernelHang: the driver accepts a functional NDRange but the
	// kernel never starts; its event completes only when abandoned (or
	// ReleaseHangs is called). A hung kernel never runs its body, so
	// re-executing its range elsewhere preserves exactly-once
	// semantics.
	KernelHang
	// EnqueueError: a functional EnqueueNDRange fails with a transient
	// device-busy error.
	EnqueueError
	// SlowGPU: a simulated GPU dispatch runs with its throughput
	// divided by the parameter (> 1).
	SlowGPU
	// StuckMSR: a package-energy MSR read returns the previous reading
	// — a RAPL read that fails under contention and keeps returning the
	// last latched sample.
	StuckMSR
	// WrapGap: an MSR read observes a permanent upward jump of the
	// parameter in joules (> 0). A jump beyond the 32-bit wrap horizon
	// makes the uint32 delta ambiguous — the fault msr.Meter's checked
	// read must detect.
	WrapGap
	// HWCDrop: a hardware-counter snapshot returns the previous
	// (stale) values, as multiplexed counters dropping an interval do.
	HWCDrop
	// HWCCorrupt: a hardware-counter snapshot returns NaNs.
	HWCCorrupt
	// ProfileLie: a profiling observation reports its GPU throughput
	// scaled by the parameter (> 0, != 1) — the fault that would
	// whipsaw α if profiles entered the table unchecked.
	ProfileLie
	// AdmissionHold: an admitted invocation wedges for the parameter in
	// nanoseconds (> 0) of wall-clock time while holding the admission
	// gate — the slow-tenant fault. Unlike every other fault it stalls
	// real time, not the simulated clock, because the admission gate
	// (and the watchdog supervising it) lives in wall time.
	AdmissionHold
	// WALWriteError: a state-store append fails before any byte lands.
	WALWriteError
	// WALShortWrite: an append writes a prefix of its record frame,
	// then fails — the torn-record shape recovery must truncate.
	WALShortWrite
	// WALNoSpace: an append fails with an out-of-disk condition.
	WALNoSpace

	// NumFaults is the number of faults.
	NumFaults
)

// valid reports whether param is a usable parameter for f. Scripting
// an invalid parameter scripts nothing, and a drawn fault whose
// parameter is invalid is not delivered.
func valid(f Fault, param float64) bool {
	switch f {
	case SlowGPU:
		return param > 1
	case ProfileLie:
		return param > 0 && param != 1
	case WrapGap, AdmissionHold:
		return param > 0
	}
	return true
}

// knob arms one fault: a scripted remaining count, an optional
// probability for seeded-random injection, and the fault's parameter.
type knob struct {
	remaining int
	prob      float64
	param     float64
}

// Stats counts the faults a plan has actually delivered.
type Stats struct {
	// Delivered counts the deliveries of each fault.
	Delivered [NumFaults]int
	// NoisyMSRReads is the number of MSR reads perturbed by gaussian
	// noise.
	NoisyMSRReads int
}

// Plan is a scripted set of faults. It is safe for concurrent use;
// Take on a nil Plan reports "no fault".
type Plan struct {
	mu          sync.Mutex
	rng         *rand.Rand
	knobs       [NumFaults]knob
	stats       Stats
	hangRelease chan struct{}
	released    bool

	// MSR read state for WrapEnergy.
	msrNoiseSigmaJ float64
	msrLast        float64
	msrGapOffsetJ  float64
}

// New returns an empty plan whose probabilistic faults draw from a
// PRNG seeded with seed, so a run replays deterministically.
func New(seed int64) *Plan {
	return &Plan{
		rng:         rand.New(rand.NewSource(seed)),
		hangRelease: make(chan struct{}),
	}
}

// Script arms the next k deliveries of f with param (ignored by faults
// that take none). An invalid param scripts nothing.
func (p *Plan) Script(f Fault, k int, param float64) {
	if !valid(f, param) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.knobs[f].remaining += k
	p.knobs[f].param = param
}

// SetProb sets the probability that each decision point for f
// delivers it once its scripted count is spent, with the parameter
// last given to Script.
func (p *Plan) SetProb(f Fault, prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.knobs[f].prob = prob
}

// Take reports (and consumes) whether the current decision point
// should suffer f, and with which parameter.
func (p *Plan) Take(f Fault) (param float64, ok bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.take(f)
}

// take consumes one scripted delivery of f, falling back to a seeded
// coin flip. Callers hold the plan lock.
func (p *Plan) take(f Fault) (float64, bool) {
	k := &p.knobs[f]
	if k.remaining > 0 {
		k.remaining--
	} else if !(k.prob > 0 && p.rng.Float64() < k.prob) {
		return 0, false
	}
	if !valid(f, k.param) {
		return 0, false
	}
	p.stats.Delivered[f]++
	return k.param, true
}

// HangReleased returns a channel closed by ReleaseHangs, letting hung
// dispatch goroutines terminate without executing their bodies.
func (p *Plan) HangReleased() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hangRelease
}

// ReleaseHangs aborts every currently hung dispatch (they complete as
// abandoned, still without running their bodies). Tests use it to
// reclaim goroutines when no timeout-driven abandon is configured.
func (p *Plan) ReleaseHangs() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.released {
		p.released = true
		close(p.hangRelease)
	}
}

// MSRNoise perturbs every subsequent MSR read with seeded gaussian
// noise of the given standard deviation in joules (0 disables). Noise
// is per-read, not accumulated — the model of read jitter, which can
// even make the counter appear to retreat.
func (p *Plan) MSRNoise(sigmaJoules float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msrNoiseSigmaJ = max(sigmaJoules, 0)
}

// WrapEnergy wraps an energy accumulator with the plan's MSR sensor
// faults (StuckMSR, WrapGap, gaussian read noise). A nil plan returns
// src unchanged; a plan with no MSR faults configured passes values
// through bit-exactly.
func (p *Plan) WrapEnergy(src func() float64) func() float64 {
	if p == nil {
		return src
	}
	return func() float64 {
		v := src()
		p.mu.Lock()
		defer p.mu.Unlock()
		if _, ok := p.take(StuckMSR); ok {
			return p.msrLast
		}
		if j, ok := p.take(WrapGap); ok {
			p.msrGapOffsetJ += j
		}
		v += p.msrGapOffsetJ
		if p.msrNoiseSigmaJ > 0 {
			v += p.rng.NormFloat64() * p.msrNoiseSigmaJ
			p.stats.NoisyMSRReads++
		}
		p.msrLast = v
		return v
	}
}

// Stats returns a snapshot of the faults delivered so far.
func (p *Plan) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

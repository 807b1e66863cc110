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
// profiler whose measured throughputs lie. The telemetry-robustness
// layer (internal/robust, profile sanitization) is tested exclusively
// through these.
//
// Faults come in two flavours that compose:
//
//   - scripted counts: "the next k GPU dispatches observe a busy
//     device" (GPUBusyFor), consumed in FIFO order by the layer that
//     owns the fault; and
//   - seeded probabilities: "each enqueue fails with probability p"
//     (EnqueueErrorProb), drawn from a PRNG seeded at construction so a
//     chaos run replays bit-for-bit.
//
// Consumers (internal/engine for busy/slow, internal/cl for enqueue
// errors and hangs, internal/platform for the sensor faults) call the
// Take* methods at each decision point; a nil *Plan is inert and costs
// one branch.
package faultinject

import (
	"math/rand"
	"sync"
	"time"
)

// knob is one fault class: a scripted remaining count plus an optional
// probability for seeded-random injection.
type knob struct {
	remaining int
	prob      float64
}

// take consumes one scripted injection, falling back to a seeded coin
// flip. Callers hold the plan lock.
func (k *knob) take(rng *rand.Rand) bool {
	if k.remaining > 0 {
		k.remaining--
		return true
	}
	return k.prob > 0 && rng.Float64() < k.prob
}

// Stats counts the faults a plan has actually delivered.
type Stats struct {
	// GPUBusy is the number of dispatches that observed a busy GPU.
	GPUBusy int
	// KernelHangs is the number of dispatched kernels that hung.
	KernelHangs int
	// EnqueueErrors is the number of enqueues that failed transiently.
	EnqueueErrors int
	// SlowDispatches is the number of dispatches run at reduced speed.
	SlowDispatches int
	// StuckMSRReads is the number of MSR reads that returned a frozen
	// counter value.
	StuckMSRReads int
	// NoisyMSRReads is the number of MSR reads perturbed by gaussian
	// noise.
	NoisyMSRReads int
	// WrapGaps is the number of injected energy jumps beyond the wrap
	// horizon.
	WrapGaps int
	// HWCDrops is the number of hardware-counter snapshots that
	// returned stale (dropped) values.
	HWCDrops int
	// HWCCorruptions is the number of snapshots that returned NaN.
	HWCCorruptions int
	// ProfileLies is the number of profiling observations whose
	// measured GPU throughput was scaled by the lie factor.
	ProfileLies int
	// AdmissionHolds is the number of invocations that stalled
	// (wall-clock) while holding the admission gate — the slow-tenant
	// fault the runtime watchdog exists to break.
	AdmissionHolds int
	// WALWriteErrors is the number of state-store appends that failed
	// outright with an injected I/O error.
	WALWriteErrors int
	// WALShortWrites is the number of appends that wrote only a prefix
	// of the record frame before failing — the torn-record shape.
	WALShortWrites int
	// WALNoSpaceWrites is the number of appends that failed with an
	// injected out-of-disk condition.
	WALNoSpaceWrites int
}

// Plan is a scripted set of device faults. It is safe for concurrent
// use; all Take* methods on a nil Plan report "no fault".
type Plan struct {
	mu          sync.Mutex
	rng         *rand.Rand
	gpuBusy     knob
	kernelHang  knob
	enqueueErr  knob
	slow        knob
	slowFactor  float64
	stats       Stats
	hangRelease chan struct{}
	released    bool

	// Sensor faults.
	stuckMSR         knob
	wrapGap          knob
	wrapGapJoules    float64
	msrNoiseSigmaJ   float64
	msrLast          float64
	msrGapOffsetJ    float64
	hwcDrop          knob
	hwcCorrupt       knob
	profileLie       knob
	profileLieFactor float64

	// Scheduling faults.
	admissionHold    knob
	admissionHoldDur time.Duration

	// Persistence faults.
	walErr   knob
	walShort knob
	walFull  knob
}

// New returns an empty plan whose probabilistic faults draw from a
// PRNG seeded with seed, so a run replays deterministically.
func New(seed int64) *Plan {
	return &Plan{
		rng:         rand.New(rand.NewSource(seed)),
		hangRelease: make(chan struct{}),
	}
}

// GPUBusyFor scripts the next k GPU dispatch attempts to find the
// device owned by another application (the engine returns its busy
// error; the scheduler's retry/fallback policy takes over).
func (p *Plan) GPUBusyFor(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gpuBusy.remaining += k
}

// HangKernels scripts the next k dispatched kernels to hang: the
// driver accepts the NDRange but the kernel never starts executing,
// and its event completes only when abandoned (or ReleaseHangs is
// called). A hung kernel never runs its body, so re-executing its
// range elsewhere preserves exactly-once semantics.
func (p *Plan) HangKernels(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kernelHang.remaining += k
}

// FailEnqueues scripts the next k EnqueueNDRange calls to fail with a
// transient device-busy error.
func (p *Plan) FailEnqueues(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enqueueErr.remaining += k
}

// SlowGPU scripts the next k GPU dispatches to run with their
// throughput divided by factor (factor > 1 slows the device; values
// <= 1 are ignored).
func (p *Plan) SlowGPU(factor float64, k int) {
	if factor <= 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slow.remaining += k
	p.slowFactor = factor
}

// GPUBusyProb sets the per-dispatch probability of observing a busy
// GPU (seeded-random chaos mode).
func (p *Plan) GPUBusyProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gpuBusy.prob = prob
}

// EnqueueErrorProb sets the per-enqueue probability of a transient
// failure.
func (p *Plan) EnqueueErrorProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enqueueErr.prob = prob
}

// TakeGPUBusy reports (and consumes) whether the current GPU dispatch
// should observe a busy device.
func (p *Plan) TakeGPUBusy() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gpuBusy.take(p.rng) {
		p.stats.GPUBusy++
		return true
	}
	return false
}

// TakeKernelHang reports (and consumes) whether the current dispatch
// should hang.
func (p *Plan) TakeKernelHang() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.kernelHang.take(p.rng) {
		p.stats.KernelHangs++
		return true
	}
	return false
}

// TakeEnqueueError reports (and consumes) whether the current enqueue
// should fail transiently.
func (p *Plan) TakeEnqueueError() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.enqueueErr.take(p.rng) {
		p.stats.EnqueueErrors++
		return true
	}
	return false
}

// TakeSlowGPU returns the throughput divisor for the current dispatch
// (1 when the device runs at full speed).
func (p *Plan) TakeSlowGPU() float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slow.take(p.rng) && p.slowFactor > 1 {
		p.stats.SlowDispatches++
		return p.slowFactor
	}
	return 1
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

// StuckMSRFor scripts the next k reads of the package-energy MSR to
// return a frozen counter value — the shape of a RAPL read that fails
// under contention and keeps returning the last latched sample.
func (p *Plan) StuckMSRFor(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stuckMSR.remaining += k
}

// StuckMSRProb sets a per-read probability of a frozen MSR value.
func (p *Plan) StuckMSRProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stuckMSR.prob = prob
}

// MSRNoise perturbs every subsequent MSR read with seeded gaussian
// noise of the given standard deviation in joules (0 disables). Noise
// is per-read, not accumulated — the model of read jitter, which can
// even make the counter appear to retreat.
func (p *Plan) MSRNoise(sigmaJoules float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sigmaJoules < 0 {
		sigmaJoules = 0
	}
	p.msrNoiseSigmaJ = sigmaJoules
}

// WrapGapFor scripts the next k MSR reads to observe a permanent
// upward jump of the given energy in joules. A jump larger than the
// 32-bit wrap horizon (2^32 counter units) makes the uint32 delta
// ambiguous — the fault msr.Meter's checked read must detect.
func (p *Plan) WrapGapFor(k int, joules float64) {
	if joules <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wrapGap.remaining += k
	p.wrapGapJoules = joules
}

// DropHWCFor scripts the next k hardware-counter snapshots to return
// the previous (stale) values — the shape of multiplexed counters
// dropping an interval.
func (p *Plan) DropHWCFor(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hwcDrop.remaining += k
}

// CorruptHWCFor scripts the next k hardware-counter snapshots to
// return NaN values.
func (p *Plan) CorruptHWCFor(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hwcCorrupt.remaining += k
}

// LieProfileFor scripts the next k profiling observations to report a
// GPU throughput scaled by factor (> 0, != 1) — the lying-profile
// fault that would whipsaw α if profiles entered the table unchecked.
func (p *Plan) LieProfileFor(factor float64, k int) {
	if factor <= 0 || factor == 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profileLie.remaining += k
	p.profileLieFactor = factor
}

// WrapEnergy wraps an energy accumulator with the plan's MSR sensor
// faults (stuck reads, wrap-horizon gaps, gaussian read noise). A nil
// plan returns src unchanged; a plan with no MSR faults configured
// passes values through bit-exactly.
func (p *Plan) WrapEnergy(src func() float64) func() float64 {
	if p == nil {
		return src
	}
	return func() float64 {
		v := src()
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.stuckMSR.take(p.rng) {
			p.stats.StuckMSRReads++
			return p.msrLast
		}
		if p.wrapGap.take(p.rng) {
			p.msrGapOffsetJ += p.wrapGapJoules
			p.stats.WrapGaps++
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

// TakeHWCDrop reports (and consumes) whether the current counter
// snapshot should return stale values.
func (p *Plan) TakeHWCDrop() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hwcDrop.take(p.rng) {
		p.stats.HWCDrops++
		return true
	}
	return false
}

// TakeHWCCorrupt reports (and consumes) whether the current counter
// snapshot should return NaN.
func (p *Plan) TakeHWCCorrupt() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hwcCorrupt.take(p.rng) {
		p.stats.HWCCorruptions++
		return true
	}
	return false
}

// TakeProfileLie returns the factor the current profiling
// observation's GPU throughput should be scaled by (1 when honest).
func (p *Plan) TakeProfileLie() float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.profileLie.take(p.rng) && p.profileLieFactor > 0 && p.profileLieFactor != 1 {
		p.stats.ProfileLies++
		return p.profileLieFactor
	}
	return 1
}

// HoldAdmissionFor scripts the next k admitted invocations to wedge
// for d of wall-clock time while holding the admission gate — the
// slow-tenant fault. Unlike every other fault it stalls real time, not
// the simulated clock, because the admission gate (and the watchdog
// supervising it) lives in wall time.
func (p *Plan) HoldAdmissionFor(d time.Duration, k int) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.admissionHold.remaining += k
	p.admissionHoldDur = d
}

// AdmissionHoldProb sets a per-admission probability of wedging for
// the duration last set by HoldAdmissionFor.
func (p *Plan) AdmissionHoldProb(prob float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.admissionHold.prob = prob
}

// TakeAdmissionHold returns how long the current admitted invocation
// should wedge while holding the gate (0 when healthy).
func (p *Plan) TakeAdmissionHold() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.admissionHold.take(p.rng) && p.admissionHoldDur > 0 {
		p.stats.AdmissionHolds++
		return p.admissionHoldDur
	}
	return 0
}

// WALFault classifies an injected state-store write failure.
type WALFault int

const (
	// WALNone means the write proceeds normally.
	WALNone WALFault = iota
	// WALWriteError fails the write before any byte lands.
	WALWriteError
	// WALShortWrite writes a prefix of the record frame, then fails —
	// the torn-record shape recovery must truncate.
	WALShortWrite
	// WALNoSpace fails the write with an out-of-disk condition.
	WALNoSpace
)

// FailWALWrites scripts the next k state-store appends to fail with an
// I/O error before writing anything.
func (p *Plan) FailWALWrites(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walErr.remaining += k
}

// ShortWALWrites scripts the next k state-store appends to land only a
// prefix of their record frame before failing.
func (p *Plan) ShortWALWrites(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walShort.remaining += k
}

// FillWALDisk scripts the next k state-store appends to fail as if the
// disk were full.
func (p *Plan) FillWALDisk(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walFull.remaining += k
}

// TakeWALFault reports (and consumes) the fault the current
// state-store append should suffer, WALNone when healthy. Scripted
// write errors take precedence over short writes, then disk-full.
func (p *Plan) TakeWALFault() WALFault {
	if p == nil {
		return WALNone
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walErr.take(p.rng) {
		p.stats.WALWriteErrors++
		return WALWriteError
	}
	if p.walShort.take(p.rng) {
		p.stats.WALShortWrites++
		return WALShortWrite
	}
	if p.walFull.take(p.rng) {
		p.stats.WALNoSpaceWrites++
		return WALNoSpace
	}
	return WALNone
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

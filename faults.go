package eas

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
)

// ErrGPUBusy is the engine's GPU-unavailable condition: the integrated
// GPU is owned by another application (or transiently rejected a
// dispatch) and the runtime degraded to CPU-only execution. It appears
// wrapped in Report.FallbackError, so callers can
// errors.Is(rep.FallbackError, eas.ErrGPUBusy) instead of inspecting
// Report.GPUBusyFallback.
var ErrGPUBusy = engine.ErrGPUBusy

// ErrGPUTimeout marks a functional GPU dispatch that exceeded
// Config.GPUDispatchTimeout; the runtime abandoned it and re-executed
// its work items on the CPU pool. It appears wrapped in
// Report.FallbackError.
var ErrGPUTimeout = errors.New("eas: GPU dispatch timed out")

// ErrBreakerOpen marks an invocation that ran CPU-only because the GPU
// circuit breaker was open (Config.BreakerThreshold consecutive GPU
// fallbacks had accumulated). It appears wrapped in
// Report.FallbackError.
var ErrBreakerOpen = errors.New("eas: GPU circuit breaker open")

// KernelPanicError reports a panic inside a kernel body. The runtime
// recovers the panic (on the CPU work-stealing pool or inside the GPU
// dispatch goroutine), drains the remaining workers cleanly, and
// returns this error instead of crashing the process.
type KernelPanicError struct {
	// Kernel is the panicking kernel's name.
	Kernel string
	// Index is the iteration index whose body panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("eas: kernel %q panicked at index %d: %v", e.Kernel, e.Index, e.Value)
}

// FallbackReason explains why a ParallelFor invocation deviated from
// its planned CPU-GPU split.
type FallbackReason string

// Fallback reasons, from least to most disruptive.
const (
	// FallbackNone: the invocation ran as scheduled.
	FallbackNone FallbackReason = ""
	// FallbackGPUBusy: the GPU was owned by another application (or
	// stayed transiently busy past the retry budget) and the loop ran
	// CPU-only.
	FallbackGPUBusy FallbackReason = "gpu-busy"
	// FallbackEnqueueError: the driver kept rejecting the functional
	// NDRange past the retry budget; the GPU's share ran on the CPU.
	FallbackEnqueueError FallbackReason = "enqueue-error"
	// FallbackGPUTimeout: the functional GPU dispatch hung past
	// Config.GPUDispatchTimeout, was abandoned, and its share was
	// re-executed on the CPU pool.
	FallbackGPUTimeout FallbackReason = "gpu-timeout"
	// FallbackBreakerOpen: the GPU circuit breaker was open after
	// repeated fallbacks, so the loop ran CPU-only without attempting
	// (or paying latency for) any GPU dispatch.
	FallbackBreakerOpen FallbackReason = "breaker-open"
)

// RetryPolicy caps recovery from transient GPU unavailability with
// exponential backoff. It governs both layers: simulated dispatches
// (backoff spent as simulated idle time) and functional enqueues
// (backoff spent as real sleep). The zero value selects the defaults.
// Its fields match core.Retry, which NewRuntime converts it to.
type RetryPolicy struct {
	// MaxAttempts is the total dispatch attempts (default 3).
	MaxAttempts int
	// BaseBackoff is the delay after the first busy attempt
	// (default 500µs), doubling per retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 8ms).
	MaxBackoff time.Duration
}

// FaultPlan scripts device faults into a Runtime — the fault-injection
// harness that makes every degradation path testable without real
// hardware. Faults are deterministic: scripted counts fire in FIFO
// order, probabilistic modes draw from a PRNG seeded at construction.
// Attach a plan via Config.Faults before NewRuntime.
type FaultPlan struct {
	inner *faultinject.Plan
}

// NewFaultPlan returns an empty plan; seed drives its probabilistic
// fault modes.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{inner: faultinject.New(seed)}
}

// GPUBusyFor scripts the next k GPU dispatch attempts (in the
// simulated engine) to find the device owned by another application.
func (f *FaultPlan) GPUBusyFor(k int) { f.inner.Script(faultinject.GPUBusy, k, 0) }

// HangKernels scripts the next k functional GPU dispatches to hang:
// the driver accepts the NDRange but never starts the kernel, so only
// Config.GPUDispatchTimeout (or context cancellation) recovers it. A
// hung kernel never executes its body.
func (f *FaultPlan) HangKernels(k int) { f.inner.Script(faultinject.KernelHang, k, 0) }

// FailEnqueues scripts the next k functional EnqueueNDRange calls to
// fail with a transient device-busy error.
func (f *FaultPlan) FailEnqueues(k int) { f.inner.Script(faultinject.EnqueueError, k, 0) }

// SlowGPU scripts the next k simulated GPU dispatches to run with
// throughput divided by factor (> 1).
func (f *FaultPlan) SlowGPU(factor float64, k int) { f.inner.Script(faultinject.SlowGPU, k, factor) }

// GPUBusyProb sets a per-dispatch busy probability (seeded chaos mode).
func (f *FaultPlan) GPUBusyProb(p float64) { f.inner.SetProb(faultinject.GPUBusy, p) }

// EnqueueErrorProb sets a per-enqueue transient-failure probability.
func (f *FaultPlan) EnqueueErrorProb(p float64) { f.inner.SetProb(faultinject.EnqueueError, p) }

// ReleaseHangs aborts every currently hung dispatch without executing
// it; useful in tests that inject hangs without configuring a timeout.
func (f *FaultPlan) ReleaseHangs() { f.inner.ReleaseHangs() }

// HoldAdmission scripts the next k admitted invocations to wedge for d
// of wall-clock time while holding the admission gate — the
// slow-tenant fault. With a watchdog configured
// (Config.Admission.Watchdog), the hold is what the watchdog
// force-releases; without one the invocation simply holds the gate for
// d before running.
func (f *FaultPlan) HoldAdmission(d time.Duration, k int) {
	f.inner.Script(faultinject.AdmissionHold, k, float64(d))
}

// FailWALWrites scripts the next k durable-state WAL appends
// (Config.State) to fail with an I/O error before writing anything.
// The first delivered persistence fault permanently disables the
// store for the run — scheduling continues from memory.
func (f *FaultPlan) FailWALWrites(k int) { f.inner.Script(faultinject.WALWriteError, k, 0) }

// ShortWALWrites scripts the next k durable-state WAL appends to land
// only a prefix of their record frame before failing — the torn-record
// shape recovery must truncate on the next open.
func (f *FaultPlan) ShortWALWrites(k int) { f.inner.Script(faultinject.WALShortWrite, k, 0) }

// FillWALDisk scripts the next k durable-state WAL appends to fail as
// if the disk were full.
func (f *FaultPlan) FillWALDisk(k int) { f.inner.Script(faultinject.WALNoSpace, k, 0) }

// Sensor faults degrade what the runtime *observes* — the package
// energy MSR, the hardware counters, the online profile — never the
// simulated machine itself. They compose freely with the GPU faults
// above, and with Config.Robustness they exercise the telemetry
// hardening end to end.

// StuckMSR scripts the next k package-energy MSR reads to repeat the
// previous reading (a latched sensor).
func (f *FaultPlan) StuckMSR(k int) { f.inner.Script(faultinject.StuckMSR, k, 0) }

// StuckMSRProb sets a per-read probability of a stuck MSR reading.
func (f *FaultPlan) StuckMSRProb(p float64) { f.inner.SetProb(faultinject.StuckMSR, p) }

// MSRNoise adds seeded Gaussian noise (standard deviation sigmaJoules)
// to every package-energy MSR read; 0 disables.
func (f *FaultPlan) MSRNoise(sigmaJoules float64) { f.inner.MSRNoise(sigmaJoules) }

// WrapGap scripts the next k MSR reads to jump forward by 2.5 counter
// wrap periods — the multi-wrap gap a too-slow sampler would see,
// which robust metering must flag as ambiguous.
func (f *FaultPlan) WrapGap(k int) {
	f.inner.Script(faultinject.WrapGap, k, 2.5*float64(uint64(1)<<32)*defaultMSRUnitJoules)
}

// DropHWC scripts the next k hardware-counter snapshots to return a
// frozen (non-advancing) reading.
func (f *FaultPlan) DropHWC(k int) { f.inner.Script(faultinject.HWCDrop, k, 0) }

// CorruptHWC scripts the next k hardware-counter snapshots to return
// NaNs, as a torn multiplexed read would.
func (f *FaultPlan) CorruptHWC(k int) { f.inner.Script(faultinject.HWCCorrupt, k, 0) }

// LieProfile scripts the next k online-profile observations to report
// GPU throughput multiplied by factor (> 0) — a plausible-looking lie
// that profile validation and classification hysteresis must contain.
func (f *FaultPlan) LieProfile(factor float64, k int) {
	f.inner.Script(faultinject.ProfileLie, k, factor)
}

// defaultMSRUnitJoules mirrors msr.DefaultUnitJoules (2^-16 J) without
// exporting the internal package.
const defaultMSRUnitJoules = 1.0 / 65536

// FaultStats counts the faults a plan has delivered.
type FaultStats struct {
	// GPU/driver faults (PR 1).
	GPUBusy, KernelHangs, EnqueueErrors, SlowDispatches int
	// Sensor faults.
	StuckMSRReads, NoisyMSRReads, WrapGaps int
	HWCDrops, HWCCorruptions, ProfileLies  int
	// Scheduling faults.
	AdmissionHolds int
	// Persistence faults (Config.State).
	WALWriteErrors, WALShortWrites, WALNoSpaceWrites int
}

// Stats returns a snapshot of delivered faults.
func (f *FaultPlan) Stats() FaultStats {
	s := f.inner.Stats()
	d := &s.Delivered
	return FaultStats{
		GPUBusy:          d[faultinject.GPUBusy],
		KernelHangs:      d[faultinject.KernelHang],
		EnqueueErrors:    d[faultinject.EnqueueError],
		SlowDispatches:   d[faultinject.SlowGPU],
		StuckMSRReads:    d[faultinject.StuckMSR],
		NoisyMSRReads:    s.NoisyMSRReads,
		WrapGaps:         d[faultinject.WrapGap],
		HWCDrops:         d[faultinject.HWCDrop],
		HWCCorruptions:   d[faultinject.HWCCorrupt],
		ProfileLies:      d[faultinject.ProfileLie],
		AdmissionHolds:   d[faultinject.AdmissionHold],
		WALWriteErrors:   d[faultinject.WALWriteError],
		WALShortWrites:   d[faultinject.WALShortWrite],
		WALNoSpaceWrites: d[faultinject.WALNoSpace],
	}
}

// faultArgs is the shape of a fault verb's argument.
type faultArgs int

const (
	argCount       faultArgs = iota // K
	argFactorCount                  // FACTORxCOUNT
	argSigma                        // SIGMA
)

// faultVerb is one ParseFaultPlan verb: its name, its argument shape,
// and the plan call it scripts with the parsed factor or sigma x and
// count k.
type faultVerb struct {
	name string
	args faultArgs
	call func(f *FaultPlan, x float64, k int)
}

// countOnly adapts a count-only plan call to a faultVerb call.
func countOnly(call func(*FaultPlan, int)) func(*FaultPlan, float64, int) {
	return func(f *FaultPlan, _ float64, k int) { call(f, k) }
}

// faultVerbs is the ParseFaultPlan grammar, in documentation order.
var faultVerbs = []faultVerb{
	{"gpubusy", argCount, countOnly((*FaultPlan).GPUBusyFor)},
	{"hang", argCount, countOnly((*FaultPlan).HangKernels)},
	{"enqueue", argCount, countOnly((*FaultPlan).FailEnqueues)},
	{"slow", argFactorCount, (*FaultPlan).SlowGPU},
	{"stuck", argCount, countOnly((*FaultPlan).StuckMSR)},
	{"noise", argSigma, func(f *FaultPlan, sigma float64, _ int) { f.MSRNoise(sigma) }},
	{"wrapgap", argCount, countOnly((*FaultPlan).WrapGap)},
	{"hwcdrop", argCount, countOnly((*FaultPlan).DropHWC)},
	{"hwccorrupt", argCount, countOnly((*FaultPlan).CorruptHWC)},
	{"lie", argFactorCount, (*FaultPlan).LieProfile},
	{"hold", argFactorCount, func(f *FaultPlan, ms float64, k int) {
		f.HoldAdmission(time.Duration(ms*float64(time.Millisecond)), k)
	}},
	{"walerr", argCount, countOnly((*FaultPlan).FailWALWrites)},
	{"walshort", argCount, countOnly((*FaultPlan).ShortWALWrites)},
	{"walfull", argCount, countOnly((*FaultPlan).FillWALDisk)},
}

// parse splits a verb's value into its factor or sigma and its count.
// On failure it returns what the value should have been.
func (a faultArgs) parse(val string) (x float64, k int, want string) {
	switch a {
	case argSigma:
		sigma, err := strconv.ParseFloat(val, 64)
		if err != nil || sigma < 0 {
			return 0, 0, "a non-negative sigma"
		}
		return sigma, 0, ""
	case argFactorCount:
		fs, ks, ok := strings.Cut(val, "x")
		if !ok {
			return 0, 0, "FACTORxCOUNT"
		}
		factor, err := strconv.ParseFloat(fs, 64)
		if err != nil || factor <= 0 {
			return 0, 0, "a positive factor"
		}
		x, val = factor, ks
	}
	k, err := strconv.Atoi(val)
	if err != nil || k < 0 {
		return 0, 0, "a non-negative count"
	}
	return x, k, ""
}

// ParseFaultPlan builds a plan from a compact comma-separated spec, so
// degraded runs are reproducible from a CLI flag:
//
//	gpubusy=K     next K simulated dispatches find the GPU busy
//	hang=K        next K functional dispatches hang
//	enqueue=K     next K functional enqueues fail transiently
//	slow=FxK      next K dispatches run F× slower (e.g. slow=4x2)
//	stuck=K       next K MSR reads latch
//	noise=SIGMA   Gaussian noise (J) on every MSR read
//	wrapgap=K     next K MSR reads jump 2.5 wrap periods
//	hwcdrop=K     next K counter snapshots freeze
//	hwccorrupt=K  next K counter snapshots return NaN
//	lie=FxK       next K profiles report F× GPU throughput
//	hold=MSxK     next K admitted invocations wedge MS milliseconds
//	              holding the admission gate (e.g. hold=250x3)
//	walerr=K      next K durable-state WAL appends fail outright
//	walshort=K    next K WAL appends tear mid-record, then fail
//	walfull=K     next K WAL appends fail as if the disk were full
//
// Example: "stuck=6,noise=0.5,lie=0.1x2". An empty spec returns an
// empty (fault-free) plan; seed drives the probabilistic modes.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	plan := NewFaultPlan(seed)
	if err := plan.Script(spec); err != nil {
		return nil, err
	}
	return plan, nil
}

// Script appends the faults described by a ParseFaultPlan spec to this
// plan. An empty spec is a no-op. Scripting a plan already attached to
// a live Runtime schedules faults for that runtime's next invocations,
// which is how the chaos soak varies its fault mix mid-run.
func (f *FaultPlan) Script(spec string) error {
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("eas: fault spec %q: want key=value", tok)
		}
		i := slices.IndexFunc(faultVerbs, func(v faultVerb) bool { return v.name == key })
		if i < 0 {
			return fmt.Errorf("eas: unknown fault %q", key)
		}
		x, k, want := faultVerbs[i].args.parse(val)
		if want != "" {
			return fmt.Errorf("eas: fault spec %q: want %s", tok, want)
		}
		faultVerbs[i].call(f, x, k)
	}
	return nil
}

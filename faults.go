package eas

import (
	"errors"
	"fmt"
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
func (f *FaultPlan) GPUBusyFor(k int) { f.inner.GPUBusyFor(k) }

// HangKernels scripts the next k functional GPU dispatches to hang:
// the driver accepts the NDRange but never starts the kernel, so only
// Config.GPUDispatchTimeout (or context cancellation) recovers it. A
// hung kernel never executes its body.
func (f *FaultPlan) HangKernels(k int) { f.inner.HangKernels(k) }

// FailEnqueues scripts the next k functional EnqueueNDRange calls to
// fail with a transient device-busy error.
func (f *FaultPlan) FailEnqueues(k int) { f.inner.FailEnqueues(k) }

// SlowGPU scripts the next k simulated GPU dispatches to run with
// throughput divided by factor (> 1).
func (f *FaultPlan) SlowGPU(factor float64, k int) { f.inner.SlowGPU(factor, k) }

// GPUBusyProb sets a per-dispatch busy probability (seeded chaos mode).
func (f *FaultPlan) GPUBusyProb(p float64) { f.inner.GPUBusyProb(p) }

// EnqueueErrorProb sets a per-enqueue transient-failure probability.
func (f *FaultPlan) EnqueueErrorProb(p float64) { f.inner.EnqueueErrorProb(p) }

// ReleaseHangs aborts every currently hung dispatch without executing
// it; useful in tests that inject hangs without configuring a timeout.
func (f *FaultPlan) ReleaseHangs() { f.inner.ReleaseHangs() }

// HoldAdmission scripts the next k admitted invocations to wedge for d
// of wall-clock time while holding the admission gate — the
// slow-tenant fault. With a watchdog configured
// (Config.Admission.Watchdog), the hold is what the watchdog
// force-releases; without one the invocation simply holds the gate for
// d before running.
func (f *FaultPlan) HoldAdmission(d time.Duration, k int) { f.inner.HoldAdmissionFor(d, k) }

// FailWALWrites scripts the next k durable-state WAL appends
// (Config.State) to fail with an I/O error before writing anything.
// The first delivered persistence fault permanently disables the
// store for the run — scheduling continues from memory.
func (f *FaultPlan) FailWALWrites(k int) { f.inner.FailWALWrites(k) }

// ShortWALWrites scripts the next k durable-state WAL appends to land
// only a prefix of their record frame before failing — the torn-record
// shape recovery must truncate on the next open.
func (f *FaultPlan) ShortWALWrites(k int) { f.inner.ShortWALWrites(k) }

// FillWALDisk scripts the next k durable-state WAL appends to fail as
// if the disk were full.
func (f *FaultPlan) FillWALDisk(k int) { f.inner.FillWALDisk(k) }

// Sensor faults degrade what the runtime *observes* — the package
// energy MSR, the hardware counters, the online profile — never the
// simulated machine itself. They compose freely with the GPU faults
// above, and with Config.Robustness they exercise the telemetry
// hardening end to end.

// StuckMSR scripts the next k package-energy MSR reads to repeat the
// previous reading (a latched sensor).
func (f *FaultPlan) StuckMSR(k int) { f.inner.StuckMSRFor(k) }

// StuckMSRProb sets a per-read probability of a stuck MSR reading.
func (f *FaultPlan) StuckMSRProb(p float64) { f.inner.StuckMSRProb(p) }

// MSRNoise adds seeded Gaussian noise (standard deviation sigmaJoules)
// to every package-energy MSR read; 0 disables.
func (f *FaultPlan) MSRNoise(sigmaJoules float64) { f.inner.MSRNoise(sigmaJoules) }

// WrapGap scripts the next k MSR reads to jump forward by 2.5 counter
// wrap periods — the multi-wrap gap a too-slow sampler would see,
// which robust metering must flag as ambiguous.
func (f *FaultPlan) WrapGap(k int) {
	f.inner.WrapGapFor(k, 2.5*float64(uint64(1)<<32)*defaultMSRUnitJoules)
}

// DropHWC scripts the next k hardware-counter snapshots to return a
// frozen (non-advancing) reading.
func (f *FaultPlan) DropHWC(k int) { f.inner.DropHWCFor(k) }

// CorruptHWC scripts the next k hardware-counter snapshots to return
// NaNs, as a torn multiplexed read would.
func (f *FaultPlan) CorruptHWC(k int) { f.inner.CorruptHWCFor(k) }

// LieProfile scripts the next k online-profile observations to report
// GPU throughput multiplied by factor (> 0) — a plausible-looking lie
// that profile validation and classification hysteresis must contain.
func (f *FaultPlan) LieProfile(factor float64, k int) { f.inner.LieProfileFor(factor, k) }

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
	return FaultStats{
		GPUBusy:          s.GPUBusy,
		KernelHangs:      s.KernelHangs,
		EnqueueErrors:    s.EnqueueErrors,
		SlowDispatches:   s.SlowDispatches,
		StuckMSRReads:    s.StuckMSRReads,
		NoisyMSRReads:    s.NoisyMSRReads,
		WrapGaps:         s.WrapGaps,
		HWCDrops:         s.HWCDrops,
		HWCCorruptions:   s.HWCCorruptions,
		ProfileLies:      s.ProfileLies,
		AdmissionHolds:   s.AdmissionHolds,
		WALWriteErrors:   s.WALWriteErrors,
		WALShortWrites:   s.WALShortWrites,
		WALNoSpaceWrites: s.WALNoSpaceWrites,
	}
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
	plan := f
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("eas: fault spec %q: want key=value", tok)
		}
		parseCount := func() (int, error) {
			k, err := strconv.Atoi(val)
			if err != nil || k < 0 {
				return 0, fmt.Errorf("eas: fault spec %q: want a non-negative count", tok)
			}
			return k, nil
		}
		parseFactorCount := func() (float64, int, error) {
			fs, ks, ok := strings.Cut(val, "x")
			if !ok {
				return 0, 0, fmt.Errorf("eas: fault spec %q: want FACTORxCOUNT", tok)
			}
			factor, err := strconv.ParseFloat(fs, 64)
			if err != nil || factor <= 0 {
				return 0, 0, fmt.Errorf("eas: fault spec %q: want a positive factor", tok)
			}
			k, err := strconv.Atoi(ks)
			if err != nil || k < 0 {
				return 0, 0, fmt.Errorf("eas: fault spec %q: want a non-negative count", tok)
			}
			return factor, k, nil
		}
		switch key {
		case "gpubusy":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.GPUBusyFor(k)
		case "hang":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.HangKernels(k)
		case "enqueue":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.FailEnqueues(k)
		case "slow":
			factor, k, err := parseFactorCount()
			if err != nil {
				return err
			}
			plan.SlowGPU(factor, k)
		case "stuck":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.StuckMSR(k)
		case "noise":
			sigma, err := strconv.ParseFloat(val, 64)
			if err != nil || sigma < 0 {
				return fmt.Errorf("eas: fault spec %q: want a non-negative sigma", tok)
			}
			plan.MSRNoise(sigma)
		case "wrapgap":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.WrapGap(k)
		case "hwcdrop":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.DropHWC(k)
		case "hwccorrupt":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.CorruptHWC(k)
		case "lie":
			factor, k, err := parseFactorCount()
			if err != nil {
				return err
			}
			plan.LieProfile(factor, k)
		case "hold":
			ms, k, err := parseFactorCount()
			if err != nil {
				return err
			}
			plan.HoldAdmission(time.Duration(ms*float64(time.Millisecond)), k)
		case "walerr":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.FailWALWrites(k)
		case "walshort":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.ShortWALWrites(k)
		case "walfull":
			k, err := parseCount()
			if err != nil {
				return err
			}
			plan.FillWALDisk(k)
		default:
			return fmt.Errorf("eas: unknown fault %q", key)
		}
	}
	return nil
}

// Package eas is an energy-aware scheduling runtime for integrated
// CPU-GPU processors, reproducing Barik et al., "A Black-Box Approach
// to Energy-Aware Scheduling on Integrated CPU-GPU Systems" (CGO 2016).
//
// The runtime partitions the iterations of a data-parallel loop between
// the CPU cores and the integrated GPU so as to minimize a user-chosen
// energy metric (total energy, energy-delay product, ED², or any custom
// function of package power and execution time), treating the
// processor's power management as a black box:
//
//   - Characterize probes a platform once with eight micro-benchmarks
//     and fits per-workload-class power curves P(α) over the GPU
//     offload ratio α;
//   - Runtime.ParallelFor profiles each new kernel online (measuring
//     device throughputs and hardware counters while real work
//     proceeds), classifies the workload, and solves for the α that
//     minimizes the metric before executing the remaining iterations
//     with CPU work-stealing plus a GPU command queue.
//
// Because Go has no serviceable GPU bindings, the platforms themselves
// are deterministic simulations calibrated to the paper's two machines
// (a Haswell-class desktop and a Bay Trail-class tablet); kernel bodies
// still execute real Go code, so results are verifiable. See DESIGN.md
// for the substitution details and EXPERIMENTS.md for the measured
// reproduction of every table and figure.
//
// # Quick start
//
//	p := eas.DesktopPlatform()
//	model, _ := eas.Characterize(p)
//	rt, _ := eas.NewRuntime(p, eas.Config{Metric: eas.EDP, Model: model})
//	out := make([]float64, 1<<20)
//	rep, _ := rt.ParallelFor(eas.Kernel{
//		Name:         "scale",
//		FLOPsPerItem: 2,
//		MemOpsPerItem: 2, L3MissRatio: 0.1, InstructionsPerItem: 8,
//		Body: func(i int) { out[i] = 2 * float64(i) },
//	}, len(out))
//	fmt.Printf("ran at α=%.2f using %.1f J\n", rep.Alpha, rep.EnergyJ)
package eas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetsched/eas/internal/cl"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/statestore"
	"github.com/hetsched/eas/internal/ws"
)

// Kernel describes one data-parallel loop: its average per-item cost
// (which drives the simulated timing and energy) and an optional
// functional body (which really executes).
type Kernel struct {
	// Name identifies the kernel; the runtime remembers the offload
	// ratio per name across invocations (the paper's global table G).
	Name string
	// FLOPsPerItem is the floating-point work per iteration.
	FLOPsPerItem float64
	// MemOpsPerItem is the load/store count per iteration.
	MemOpsPerItem float64
	// L3MissRatio is the fraction of memory operations that reach DRAM.
	L3MissRatio float64
	// Divergence in [0,1] captures input-dependent control flow.
	Divergence float64
	// InstructionsPerItem is the total instructions per iteration.
	InstructionsPerItem float64
	// Body, when non-nil, is executed for every iteration index
	// (concurrently; it must be safe for concurrent invocation on
	// distinct indices).
	Body func(i int)
}

func (k Kernel) toEngine() engine.Kernel {
	return engine.Kernel{
		Name: k.Name,
		Cost: device.CostProfile{
			FLOPs:        k.FLOPsPerItem,
			MemOps:       k.MemOpsPerItem,
			L3MissRatio:  k.L3MissRatio,
			Divergence:   k.Divergence,
			Instructions: k.InstructionsPerItem,
		},
	}
}

// Config tunes a Runtime.
type Config struct {
	// Metric is the objective to minimize; the zero value selects EDP.
	Metric Metric
	// Model is a precomputed power characterization. When nil, the
	// runtime characterizes the platform at construction (the paper's
	// one-time-per-processor step).
	Model *PowerModel
	// AlphaStep is the offload-ratio search granularity (default 0.1).
	AlphaStep float64
	// ReprofileEvery re-profiles a known kernel every k-th invocation
	// (for workloads whose behaviour drifts); 0 profiles only once.
	ReprofileEvery int
	// Workers sets the CPU worker count for functional execution;
	// 0 selects GOMAXPROCS.
	Workers int
	// GPUDispatchTimeout bounds the real (wall-clock) wait for a
	// functional GPU dispatch to complete. On expiry the dispatch is
	// abandoned and its work items are re-executed on the CPU pool
	// (Report.FallbackReason = FallbackGPUTimeout). 0 disables the
	// timeout. The re-execution is exactly-once for hung dispatches
	// (they never start); a merely slow dispatch that outlives the
	// timeout keeps running, so bodies should be idempotent when a
	// timeout is configured.
	GPUDispatchTimeout time.Duration
	// GPURetry caps retries with exponential backoff when the GPU is
	// transiently busy, at both the scheduling layer (simulated
	// dispatches) and the functional layer (driver enqueues). The zero
	// value selects 3 attempts, 500µs base backoff, 8ms cap.
	GPURetry RetryPolicy
	// Faults injects scripted device faults for testing the
	// degradation paths (see FaultPlan); nil runs fault-free.
	Faults *FaultPlan
	// BreakerThreshold enables the GPU circuit breaker: after this many
	// consecutive GPU fallbacks (busy, enqueue failures, timeouts) the
	// runtime schedules CPU-only without paying dispatch latency, until
	// a half-open probe finds the device healthy again. 0 disables the
	// breaker (historical behaviour).
	BreakerThreshold int
	// BreakerProbeAfter is how many suppressed invocations an open
	// breaker waits before admitting a probe (default 8).
	BreakerProbeAfter int
	// Robustness tunes the telemetry-hardening layer. The zero value
	// disables it entirely.
	Robustness Robustness
	// Admission bounds the admission gate that serializes invocations
	// onto the platform: per-tenant quotas, bounded class queues with
	// load shedding, the aging rate, and a hold-time watchdog. Priority
	// classes and deadline budgets attached with WithClass and
	// WithDeadlineBudget always apply. The zero value sets no bound: the
	// gate is a single-class, unlimited, unbounded fair FIFO.
	Admission AdmissionPolicy
	// Decision tunes the fresh-entry fast path. The zero value decides
	// every invocation on its own.
	Decision DecisionPolicy
	// State configures durable scheduler state: the α-table WAL +
	// snapshot that lets learned per-kernel offload ratios survive a
	// crash or restart instead of forcing full re-profiling. The zero
	// value (no path) keeps state purely in memory.
	State StatePolicy
	// Observer, when non-nil, receives one record (phase timings, the
	// decision audit, rare-path outcomes) and runtime metrics for every
	// invocation (see NewObserver). One Observer may be shared by
	// several Runtimes. Nil — the default — disables all
	// instrumentation at zero cost on the scheduling path.
	Observer *Observer
	// Reuse has no effect: every Runtime pools Reports, and
	// Runtime.ReleaseReport always recycles. See DESIGN.md §14 for the
	// ownership rules.
	//
	// Deprecated: pooling is always on.
	Reuse bool
}

// Robustness tunes how skeptically the runtime treats its sensors.
// All-zero disables the layer: every sensor reading and profile is
// trusted as measured. Its fields match core.Robustness, which
// NewRuntime converts it to.
type Robustness struct {
	// Meter routes invocation energy through a robust meter that
	// rejects implausible package-energy samples (wrap-horizon
	// violations, power outliers, stuck counters) and substitutes the
	// characterized model's predicted P(α). Package power above 4×TDP
	// is implausible; the outlier filter is a Hampel filter (K=8 scaled
	// MADs over a 5-sample window); 4 identical raw reads while time
	// advances declare the sensor stuck.
	Meter bool
	// ValidateProfiles quarantines physically impossible online-profile
	// observations (NaN/Inf, negative work, no throughput) before they
	// reach the α table and clamps implausible throughput ratios to the
	// platform envelope; quarantined kernels re-profile next invocation.
	ValidateProfiles bool
	// CategoryHysteresis ≥ 2 requires that many consecutive disagreeing
	// profiles before a kernel's remembered workload category flips.
	CategoryHysteresis int
}

// Report describes one ParallelFor execution.
type Report struct {
	// InvocationID numbers this runtime's invocations monotonically
	// from 1 (shared across runtimes attached to one Observer, so a
	// report correlates with its trace track and audit record).
	InvocationID uint64
	// Started and Finished are the invocation's wall-clock bounds:
	// admission wait through scheduling and functional execution.
	Started, Finished time.Time
	// Alpha is the GPU offload ratio applied after profiling.
	Alpha float64
	// Profiled is true when this invocation ran online profiling.
	Profiled bool
	// ProfileSteps counts the profiling repetitions.
	ProfileSteps int
	// Category is the workload class key ("mem-cpuS-gpuL") used to
	// pick the power curve; empty when the invocation was not profiled.
	Category string
	// GPUBusyFallback is true when the GPU was owned by another
	// application and the loop ran CPU-only.
	GPUBusyFallback bool
	// FallbackReason explains a deviation from the planned split
	// (FallbackNone when the run went as scheduled).
	FallbackReason FallbackReason
	// FallbackError is the root cause behind FallbackReason, wrapping
	// ErrGPUBusy or ErrGPUTimeout for errors.Is; nil when the run went
	// as scheduled. A fallback is a successful, degraded execution —
	// ParallelFor still returns a nil error.
	FallbackError error
	// Retries counts every GPU dispatch/enqueue attempt that found the
	// device busy — including the final attempt that exhausts the
	// retry budget on fallback paths — so dispatch attempts equal
	// successes plus Retries.
	Retries int
	// ReexecutedItems counts work items whose GPU dispatch was
	// abandoned and which were re-executed on the CPU pool.
	ReexecutedItems int
	// Duration and EnergyJ are the simulated execution totals.
	Duration time.Duration
	EnergyJ  float64
	// CPUEnergyJ, GPUEnergyJ and DRAMEnergyJ split the package energy
	// by RAPL domain (cores / integrated GPU / memory); the remainder
	// is the idle/uncore floor.
	CPUEnergyJ, GPUEnergyJ, DRAMEnergyJ float64
	// MetricValue is the configured metric evaluated on this run.
	MetricValue float64
	// CPUItems and GPUItems are the iterations each device executed.
	CPUItems, GPUItems float64
	// TelemetryHealth grades this invocation's energy measurement:
	// "healthy", "degraded" (some samples rejected and substituted), or
	// "failed" (metering effectively dead; energy is mostly
	// model-predicted). Empty when Config.Robustness is off.
	TelemetryHealth string
	// MeterSamplesRejected counts MSR samples the robust meter rejected
	// during this invocation (0 when the robust meter is off).
	MeterSamplesRejected int
	// ProfileQuarantined is true when this invocation's online profile
	// was physically impossible and was discarded before reaching the α
	// table; ProfileSanitized when it was clamped to the platform
	// envelope. Both false when profile validation is off.
	ProfileQuarantined, ProfileSanitized bool
	// BreakerState is the GPU circuit breaker's position after this
	// invocation ("closed", "open", "half-open"); empty when the
	// breaker is disabled.
	BreakerState string
	// FastPath is true when a fresh, high-confidence table record let
	// this invocation skip a periodic re-profile
	// (Config.Decision.TableTTL / MinConfidence).
	FastPath bool
	// Coalesced is always false: every invocation makes its own
	// decision (see DecisionPolicy.Coalesce).
	//
	// Deprecated: decisions are no longer coalesced.
	Coalesced bool
}

// Runtime is the energy-aware scheduling runtime bound to one platform.
// A Runtime is safe for concurrent use: any number of goroutines may
// call ParallelFor/ParallelForCtx at once. The scheduling step of each
// invocation (profiling, α search, and the simulated timed execution)
// is admitted onto the single simulated platform in fair FIFO order —
// the virtual clock, PCU state and energy MSRs are a shared physical
// resource, so exactly one invocation drives them at a time — while
// the functional execution of kernel bodies from different callers
// runs genuinely in parallel: CPU shares on the shared work-stealing
// pool, GPU shares each on an in-order command queue the invocation
// borrows from the runtime's context. Do not share one Platform
// between multiple Runtimes that run concurrently.
type Runtime struct {
	platform  *Platform
	eng       *engine.Engine
	sched     *core.Scheduler
	metric    Metric
	pool      *ws.Pool
	ctx       *cl.Context
	timeout   time.Duration
	retry     core.Retry
	robustOn  bool // any Robustness knob active → report telemetry
	breakerOn bool // breaker enabled → report breaker state
	obsv      *obs.Observer
	invSeq    atomic.Uint64 // invocation ids when no observer is attached
	closeOnce sync.Once
	reports   sync.Pool // released *Reports awaiting reuse
	// removeCollectors folds this runtime's final pull-metric deltas
	// into the observer and unregisters its collectors (Close).
	removeCollectors func()

	// Graceful-drain state. closeMu + closed implement the admission
	// side (new invocations after Close observe ErrClosed); inflight
	// counts invocations between admission and completion so Close can
	// wait them out — bounded by drainTimeout — before releasing the
	// shared context under them.
	closeMu      sync.RWMutex
	closed       bool
	inflight     sync.WaitGroup
	drainTimeout time.Duration
}

// beginInvocation admits one invocation against the runtime's
// lifecycle: after Close has started draining, it refuses with
// ErrClosed. The RLock-guarded Add keeps the counter race-free against
// Close's Wait (an Add can only happen while closed is still false,
// which Close flips under the write lock before waiting).
func (r *Runtime) beginInvocation() error {
	r.closeMu.RLock()
	if r.closed {
		r.closeMu.RUnlock()
		return ErrClosed
	}
	r.inflight.Add(1)
	r.closeMu.RUnlock()
	return nil
}

func (r *Runtime) endInvocation() { r.inflight.Done() }

// getReport returns the Report an invocation will fill in: one a
// caller released if the pool holds any (the caller overwrites every
// field), freshly allocated otherwise.
func (r *Runtime) getReport() *Report {
	if rep, _ := r.reports.Get().(*Report); rep != nil {
		r.obsv.RecordPoolReuse()
		return rep
	}
	return new(Report)
}

// ReleaseReport returns a finished Report to the runtime's pool so a
// later invocation can reuse it. Call it only once per Report and only
// when no reference into it survives — a released Report is overwritten
// by a future invocation. Library code must not release a Report its
// caller still reads. Releasing is optional: an unreleased Report is
// simply garbage-collected. A nil Report is ignored.
func (r *Runtime) ReleaseReport(rep *Report) {
	if rep == nil {
		return
	}
	r.reports.Put(rep)
}

// nextInvocation allocates this invocation's id: from the shared
// observer when one is attached (unique across runtimes), otherwise
// from the runtime's own sequence.
func (r *Runtime) nextInvocation() uint64 {
	if r.obsv.Enabled() {
		return r.obsv.NextInvocationID()
	}
	return r.invSeq.Add(1)
}

// NewRuntime builds a runtime on the platform. If cfg.Model is nil the
// platform is characterized first (slow path; prefer passing a saved
// model, as a real deployment would).
func NewRuntime(p *Platform, cfg Config) (*Runtime, error) {
	if p == nil {
		return nil, errors.New("eas: nil platform")
	}
	metric := cfg.Metric
	if !metric.valid() {
		metric = EDP
	}
	model := cfg.Model
	if model == nil {
		var err error
		model, err = Characterize(p)
		if err != nil {
			return nil, err
		}
	}
	if model.inner.Platform != p.Name() {
		return nil, fmt.Errorf("eas: power model was characterized on %q, platform is %q",
			model.inner.Platform, p.Name())
	}
	eng := engine.New(p.inner)
	// Sensor faults must attach before core.New: they reroute the
	// platform's MSR pointer, which the scheduler's robust meter
	// captures at construction.
	if cfg.Faults != nil {
		p.inner.SetSensorFaults(cfg.Faults.inner)
		eng.SetFaultPlan(cfg.Faults.inner)
	}
	sched, err := core.New(eng, model.inner, metric.inner, core.Options{
		AlphaStep:         cfg.AlphaStep,
		ReprofileEvery:    cfg.ReprofileEvery,
		GrowProfileChunk:  true,
		ConvergeTol:       0.08,
		Retry:             core.Retry(cfg.GPURetry),
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerProbeAfter: cfg.BreakerProbeAfter,
		Observer:          cfg.Observer.internal(),
		Admission: core.AdmissionOptions{
			TenantRate:      cfg.Admission.TenantRate,
			TenantBurst:     cfg.Admission.TenantBurst,
			QueueDepth:      cfg.Admission.QueueDepth,
			AgingStep:       cfg.Admission.AgingStep,
			Watchdog:        cfg.Admission.Watchdog,
			RetryAfterFloor: cfg.Admission.RetryAfterFloor,
		},
		Decision: core.DecisionPolicy{
			TableTTL:      cfg.Decision.TableTTL,
			MinConfidence: cfg.Decision.MinConfidence,
		},
		State: core.StatePolicy{
			Path:         cfg.State.Path,
			Sync:         statestore.SyncMode(cfg.State.Sync),
			CompactEvery: cfg.State.CompactEvery,
		},
		Robustness: core.Robustness(cfg.Robustness),
	})
	if err != nil {
		return nil, err
	}
	for tenant, q := range cfg.Admission.TenantQuotas {
		sched.SetTenantQuota(tenant, q.Rate, q.Burst)
	}
	ctx := cl.NewContext(p.inner)
	if cfg.Faults != nil {
		ctx.SetFaultPlan(cfg.Faults.inner)
	}
	rt := &Runtime{
		platform:  p,
		eng:       eng,
		sched:     sched,
		metric:    metric,
		pool:      ws.NewPool(cfg.Workers),
		ctx:       ctx,
		timeout:   cfg.GPUDispatchTimeout,
		retry:     sched.Retry(),
		robustOn:  cfg.Robustness.Meter || cfg.Robustness.ValidateProfiles,
		breakerOn: cfg.BreakerThreshold > 0,
		obsv:      cfg.Observer.internal(),
	}
	rt.drainTimeout = cfg.State.DrainTimeout
	if rt.drainTimeout <= 0 {
		rt.drainTimeout = 5 * time.Second
	}
	rt.removeCollectors = cfg.Observer.registerRuntimeCollectors(rt)
	return rt, nil
}

// Platform returns the runtime's platform.
func (r *Runtime) Platform() *Platform { return r.platform }

// Metric returns the objective the runtime minimizes.
func (r *Runtime) Metric() Metric { return r.metric }

// Alpha returns the remembered offload ratio for a kernel name, with
// ok=false for kernels the runtime has not yet scheduled.
func (r *Runtime) Alpha(kernelName string) (alpha float64, ok bool) {
	return r.sched.Alpha(kernelName)
}

// ParallelFor executes n iterations of kernel k with energy-aware
// CPU-GPU partitioning. Timing and energy come from the platform
// simulation; if k.Body is non-nil, every iteration is also executed
// functionally — the GPU's share through the OpenCL-style queue, the
// CPU's share on the work-stealing pool — so the loop's results are
// real.
//
// Execution is fault-tolerant: a panicking body is recovered and
// returned as a *KernelPanicError (the process survives and the
// runtime stays usable); a busy or hung GPU triggers retries and then
// CPU re-execution, reported through Report.FallbackReason rather
// than an error.
func (r *Runtime) ParallelFor(k Kernel, n int) (*Report, error) {
	return r.ParallelForCtx(context.Background(), k, n)
}

// ParallelForCtx is ParallelFor with cancellation: while the
// invocation is queued at the admission gate behind other callers, or
// once the CPU pool is handing out chunks and the GPU event wait is in
// flight, cancellation returns promptly with ctx.Err(). The simulated
// scheduling step itself is not interruptible once admitted (it runs
// in virtual time and returns quickly); cancellation governs the
// admission wait and the functional execution.
func (r *Runtime) ParallelForCtx(ctx context.Context, k Kernel, n int) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, fmt.Errorf("eas: non-positive iteration count %d", n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.beginInvocation(); err != nil {
		return nil, err
	}
	defer r.endInvocation()
	started := time.Now()
	id := r.nextInvocation()
	// The invocation's record lives on this stack; inv stays nil when
	// no observer is attached.
	rec := obs.Invocation{ID: id, Kernel: k.Name, Start: started}
	var inv *obs.Invocation
	if r.obsv != nil {
		inv = &rec
	}
	rep, err := r.sched.ParallelForScoped(ctx, k.toEngine(), n, inv)
	if err != nil {
		// Surface core's load-shedding rejection as the public typed
		// error so callers can errors.As for the RetryAfter hint.
		var ov *core.ErrOverloaded
		if errors.As(err, &ov) {
			err = &ErrOverloaded{
				Tenant:     ov.Tenant,
				Class:      Class(ov.Class),
				Reason:     ov.Reason,
				RetryAfter: ov.RetryAfter,
			}
		}
		r.finish(inv, nil, err)
		return nil, err
	}
	out := r.getReport()
	*out = Report{
		InvocationID:    id,
		Started:         started,
		CPUEnergyJ:      rep.CPUEnergyJ,
		GPUEnergyJ:      rep.GPUEnergyJ,
		DRAMEnergyJ:     rep.DRAMEnergyJ,
		Alpha:           rep.Alpha,
		Profiled:        rep.Profiled,
		ProfileSteps:    rep.ProfileSteps,
		GPUBusyFallback: rep.GPUBusyFallback,
		Retries:         rep.Retries,
		Duration:        rep.Duration,
		EnergyJ:         rep.EnergyJ,
		MetricValue:     r.metric.inner.EvalEnergy(rep.EnergyJ, rep.Duration.Seconds()),
		CPUItems:        rep.CPUItems,
		GPUItems:        rep.GPUItems,
		FastPath:        rep.FastPath,
	}
	if rep.Profiled {
		out.Category = rep.Category.Key()
	}
	if r.robustOn {
		out.TelemetryHealth = rep.Telemetry.String()
		out.MeterSamplesRejected = rep.MeterSamplesRejected
		out.ProfileQuarantined = rep.ProfileQuarantined
		out.ProfileSanitized = rep.ProfileSanitized
	}
	if r.breakerOn {
		out.BreakerState = rep.BreakerState.String()
	}
	switch {
	case rep.BreakerOpen:
		out.FallbackReason = FallbackBreakerOpen
		out.FallbackError = fmt.Errorf("eas: kernel %q ran CPU-only: %w", k.Name, ErrBreakerOpen)
	case rep.GPUBusyFallback:
		out.FallbackReason = FallbackGPUBusy
		out.FallbackError = fmt.Errorf("eas: kernel %q ran CPU-only: %w", k.Name, ErrGPUBusy)
	}
	if k.Body != nil {
		if err := r.executeCtx(ctx, k, n, rep.Alpha, out, inv); err != nil {
			r.finish(inv, nil, err)
			return nil, err
		}
	}
	out.Finished = time.Now()
	r.finish(inv, out, nil)
	return out, nil
}

// finish hands an observed invocation's record to the observer, once:
// with the error that failed it, or amended with the functional
// layer's outcome — its busy enqueues and the fallback (enqueue-error,
// gpu-timeout) that moved the GPU share to the CPU.
func (r *Runtime) finish(inv *obs.Invocation, out *Report, err error) {
	if inv == nil {
		return
	}
	inv.Fail(err)
	if out != nil {
		inv.EnqueueRetries = out.Retries - inv.Retries
		switch out.FallbackReason {
		case FallbackEnqueueError, FallbackGPUTimeout:
			inv.Fallback = string(out.FallbackReason)
			inv.FallbackItems = float64(out.ReexecutedItems)
		}
	}
	r.obsv.Finish(inv)
}

// executeCtx runs the loop body for real, split at the chosen ratio,
// with the degradation policy: transient enqueue failures are retried
// with capped exponential backoff, a dispatch that exceeds the GPU
// timeout is abandoned and its share re-executed on the CPU pool, and
// body panics on either device surface as *KernelPanicError. The GPU
// share goes through a command queue borrowed for this invocation
// alone and returned when the functional execution ends, so the GPU
// shares of concurrent invocations overlap. The dispatch timeout runs
// on the borrowed queue's timer, and the event goes back to the queue
// when the execution is done with it, so a warm invocation allocates
// nothing here.
func (r *Runtime) executeCtx(ctx context.Context, k Kernel, n int, alpha float64, out *Report, inv *obs.Invocation) error {
	inv.Begin(obs.PhaseFunctional)
	defer inv.End(obs.PhaseFunctional)
	gpuItems := int(alpha * float64(n))
	if gpuItems > n {
		gpuItems = n
	}
	var ev *cl.Event
	if gpuItems > 0 {
		q := r.ctx.AcquireQueue()
		defer r.ctx.ReleaseQueue(q)
		var err error
		ev, err = r.enqueueWithRetry(ctx, q, k, gpuItems, out)
		switch {
		case err == nil:
			defer ev.Release()
		case errors.Is(err, cl.ErrDeviceBusy):
			// Retry budget exhausted: degrade the GPU share to the CPU.
			r.sched.Breaker().RecordFallback()
			out.FallbackReason = FallbackEnqueueError
			out.FallbackError = fmt.Errorf("eas: kernel %q enqueue kept failing (%v): %w", k.Name, err, ErrGPUBusy)
			out.ReexecutedItems += gpuItems
			gpuItems = 0
		default:
			return fmt.Errorf("eas: GPU dispatch: %w", err)
		}
	}
	if gpuItems < n {
		if err := r.pool.ParallelForIn(ctx, gpuItems, n, 0, k.Body); err != nil {
			if ev != nil {
				ev.Abandon()
			}
			return wrapBodyError(k, err)
		}
	}
	if ev != nil {
		err := ev.WaitTimeout(ctx, r.timeout)
		switch {
		case err == nil:
			r.sched.Breaker().RecordSuccess()
		case ctx.Err() != nil:
			// Caller cancellation wins over the dispatch timeout.
			ev.Abandon()
			return ctx.Err()
		case errors.Is(err, context.DeadlineExceeded):
			// GPU hang: abandon the dispatch (a hung kernel never ran
			// its body, so re-execution stays exactly-once) and run the
			// GPU's share on the CPU pool.
			ev.Abandon()
			r.sched.Breaker().RecordFallback()
			out.FallbackReason = FallbackGPUTimeout
			out.FallbackError = fmt.Errorf("eas: kernel %q: %w after %v", k.Name, ErrGPUTimeout, r.timeout)
			out.ReexecutedItems += gpuItems
			if rerr := r.pool.ParallelForCtx(ctx, gpuItems, 0, k.Body); rerr != nil {
				return wrapBodyError(k, rerr)
			}
		default:
			return wrapBodyError(k, err)
		}
	}
	return nil
}

// enqueueWithRetry submits the functional NDRange, retrying transient
// device-busy rejections with capped exponential backoff (real sleep;
// this is the host-side driver path). Every busy rejection counts
// toward out.Retries, including the final attempt that exhausts the
// budget, matching the scheduling layer's accounting.
func (r *Runtime) enqueueWithRetry(ctx context.Context, q *cl.CommandQueue, k Kernel, gpuItems int, out *Report) (*cl.Event, error) {
	backoff := r.retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		ev, err := q.EnqueueNDRange(cl.Kernel{Name: k.Name, Body: k.Body}, 0, gpuItems)
		if err == nil || !errors.Is(err, cl.ErrDeviceBusy) {
			return ev, err
		}
		out.Retries++
		if attempt >= r.retry.MaxAttempts {
			return ev, err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
		backoff *= 2
		if backoff > r.retry.MaxBackoff {
			backoff = r.retry.MaxBackoff
		}
	}
}

// wrapBodyError converts pool- and driver-level failures into the
// public error types. Both layers report the absolute iteration index.
func wrapBodyError(k Kernel, err error) error {
	var wsPanic *ws.PanicError
	if errors.As(err, &wsPanic) {
		return &KernelPanicError{
			Kernel: k.Name,
			Index:  wsPanic.Index,
			Value:  wsPanic.Value,
			Stack:  wsPanic.Stack,
		}
	}
	var clPanic *cl.PanicError
	if errors.As(err, &clPanic) {
		return &KernelPanicError{
			Kernel: k.Name,
			Index:  clPanic.GID,
			Value:  clPanic.Value,
			Stack:  clPanic.Stack,
		}
	}
	return fmt.Errorf("eas: kernel %q execution: %w", k.Name, err)
}

// CreateBuffer reserves shared CPU-GPU memory for application data,
// enforcing the platform's driver limit (250 MB on the tablet). Callers
// should release buffers when done.
func (r *Runtime) CreateBuffer(name string, bytes int64) (*cl.Buffer, error) {
	return r.ctx.CreateBuffer(name, bytes)
}

// Close gracefully shuts the runtime down: it stops admitting new
// invocations (concurrent and later ParallelFor calls return
// ErrClosed), waits — bounded by Config.State.DrainTimeout, default
// 5s — for in-flight invocations to finish, then drains every GPU
// command queue, releases the shared-memory context, and flushes +
// fsyncs the durable state store if one is configured. Once the drain
// budget has expired, every GPU command that has not started its body
// — queued, or hung in dispatch — is abandoned without running any
// item, so a hung dispatch cannot hold Close even with
// GPUDispatchTimeout off; GPU bodies already running are still waited
// for. Close is idempotent; repeat calls return nil immediately.
//
// A non-nil error means the drain timed out (the runtime closed
// anyway — stragglers may observe a released context) or the final
// state flush failed; learned state already on disk is unaffected.
func (r *Runtime) Close() error {
	var err error
	r.closeOnce.Do(func() {
		start := time.Now()
		r.closeMu.Lock()
		r.closed = true
		r.closeMu.Unlock()
		done := make(chan struct{})
		go func() {
			r.inflight.Wait()
			close(done)
		}()
		timer := time.NewTimer(r.drainTimeout)
		select {
		case <-done:
			timer.Stop()
		case <-timer.C:
			err = fmt.Errorf("eas: close: drain timed out after %v with invocations still in flight", r.drainTimeout)
			r.ctx.Abandon()
		}
		r.ctx.Finish()
		r.ctx.Release()
		if cerr := r.sched.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("eas: close: flushing state: %w", cerr)
		}
		r.removeCollectors()
		r.obsv.RecordDrain(time.Since(start).Seconds())
	})
	return err
}

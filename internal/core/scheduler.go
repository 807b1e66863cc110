package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/msr"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/profile"
	"github.com/hetsched/eas/internal/robust"
	"github.com/hetsched/eas/internal/statestore"
	"github.com/hetsched/eas/internal/wclass"
)

// Retry tunes recovery from transient GPU unavailability: a dispatch
// that finds the device busy is retried after a capped exponential
// backoff (spent as simulated idle time, so the energy accounting
// stays honest) before the scheduler degrades to CPU-only execution.
type Retry struct {
	// MaxAttempts is the total dispatch attempts per phase (default 3).
	MaxAttempts int
	// BaseBackoff is the first backoff (default 500µs simulated).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 8ms).
	MaxBackoff time.Duration
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 500 * time.Microsecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 8 * time.Millisecond
	}
	return r
}

// Options tune the EAS scheduler. Zero values select the paper's
// settings. The four policy groups mirror the public eas.Config
// groups of the same name, so the runtime hands each one across as a
// single conversion and the compiler rejects any drift between the
// layers. Options stays comparable (scalars and a pointer only).
type Options struct {
	// AlphaStep is the α grid granularity (paper: 0.1). Steps outside
	// (0, 1] select the paper's value, the same rule BestAlpha applies.
	AlphaStep float64
	// ReprofileEvery re-runs profiling on every k-th invocation of a
	// known kernel, for workloads whose behaviour drifts over time:
	// counting the initial profiled invocation as 1, every invocation
	// whose ordinal is a multiple of k profiles again (k=1 profiles
	// every time; k=2 on invocations 2, 4, 6, …). Only recorded
	// invocations count — small-N and fallback runs do not advance the
	// schedule. 0 disables re-profiling (Fig. 7's default).
	ReprofileEvery int
	// GrowProfileChunk doubles the GPU profiling chunk between
	// repeated steps ([12]'s size-based strategy); when false every
	// step uses GPU_PROFILE_SIZE.
	GrowProfileChunk bool
	// ConvergeTol stops repeated profiling early once two consecutive
	// steps agree on both throughputs within the given relative
	// tolerance (but never before the second step). This keeps the
	// hybrid-power profiling exposure small for long kernels whose
	// behaviour is stable. Zero disables early stopping (the paper's
	// literal repeat-until-half rule); negative also disables.
	ConvergeTol float64
	// MaxProfileSteps caps the repeated profiling loop; 0 is unlimited
	// (bounded by half of the iterations). 1 gives the naive
	// single-probe strategy of Kaleem et al. [12], which the paper's
	// size-based strategy improves on.
	MaxProfileSteps int
	// ShortLongThreshold overrides the 100 ms short/long classification
	// cut (0 keeps the paper's value). The paper notes the threshold
	// should ideally derive from the PCU's sampling frequency and
	// leaves tuning to future work; see report.AblationThresholds.
	ShortLongThreshold time.Duration
	// MemoryBoundThreshold overrides the 0.33 miss-per-load/store cut
	// (0 keeps the paper's value).
	MemoryBoundThreshold float64
	// Retry tunes recovery from transient GPU-busy dispatch failures.
	Retry Retry
	// BreakerThreshold enables the GPU circuit breaker: after this
	// many consecutive GPU fallbacks the scheduler stops offering work
	// to the GPU. 0 disables the breaker.
	BreakerThreshold int
	// BreakerProbeAfter is how many suppressed invocations an open
	// breaker waits before half-opening for a probe (default 8).
	BreakerProbeAfter int
	// Observer receives per-invocation span traces, decision-audit
	// records, and runtime metrics. Nil (the default) disables all
	// instrumentation: every hook degrades to a nil-check and the hot
	// path allocates nothing.
	Observer *obs.Observer

	// Admission bounds the admission gate (tiered.go). The zero value
	// is a single-class, unlimited, unbounded fair FIFO. Per-tenant
	// quota overrides are a map and so live outside Options
	// (Scheduler.SetTenantQuota).
	Admission AdmissionOptions
	// Decision tunes the fresh-entry fast path (profileDue).
	Decision DecisionPolicy
	// State configures the durable α table (state.go); an empty Path
	// keeps state in memory only.
	State StatePolicy
	// Robustness tunes the telemetry-robustness layer; the zero value
	// trusts every sensor reading and profile.
	Robustness Robustness
}

// DecisionPolicy tunes the fresh-entry fast path (profileDue). Its
// fields match eas.DecisionPolicy, which documents them in full.
type DecisionPolicy struct {
	// TableTTL re-profiles a record older than the TTL; with
	// MinConfidence it also enables the fast path that skips a periodic
	// re-profile of a fresh, confident record (Report.FastPath).
	TableTTL time.Duration
	// MinConfidence is how many recorded invocations the fast path
	// needs.
	MinConfidence int
}

// Robustness tunes how skeptically the scheduler treats its sensors.
// Its fields match eas.Robustness, which documents them in full.
type Robustness struct {
	// Meter routes invocation energy through a robust.EnergyMeter that
	// rejects implausible MSR samples and substitutes the model's
	// predicted power (plausible up to 4×TDP, window 5, Hampel K=8,
	// 4 stuck reads).
	Meter bool
	// ValidateProfiles quarantines impossible online profiles before
	// they reach the α table and clamps implausible throughput ratios.
	ValidateProfiles bool
	// CategoryHysteresis ≥ 2 requires that many consecutive
	// disagreeing profiles before a remembered category flips.
	CategoryHysteresis int
}

// profileShare is the fraction of a profiled invocation's iterations
// repeated profiling may consume — the paper's "repeat profiling for
// half of the iterations".
const profileShare = 0.5

// validate rejects option values no default can repair: a NaN or
// infinite float, or a WAL sync mode the store does not know. Negative
// values keep their documented meanings and pass.
func (o Options) validate() error {
	floats := [...]struct {
		name string
		v    float64
	}{
		{"AlphaStep", o.AlphaStep},
		{"ConvergeTol", o.ConvergeTol},
		{"MemoryBoundThreshold", o.MemoryBoundThreshold},
		{"Admission.TenantRate", o.Admission.TenantRate},
		{"Admission.TenantBurst", o.Admission.TenantBurst},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: option %s is %v, want a finite value", f.name, f.v)
		}
	}
	if o.State.Sync != statestore.SyncOnCompact && o.State.Sync != statestore.SyncAlways {
		return fmt.Errorf("core: option State.Sync is %d, want SyncOnCompact or SyncAlways", o.State.Sync)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.AlphaStep <= 0 || o.AlphaStep > 1 {
		o.AlphaStep = 0.1
	}
	if o.ShortLongThreshold <= 0 {
		o.ShortLongThreshold = wclass.ShortLongThreshold
	}
	if o.MemoryBoundThreshold <= 0 {
		o.MemoryBoundThreshold = wclass.MemoryBoundThreshold
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// record is one entry of the global table G: the per-kernel state the
// runtime remembers across invocations. Only profiled executions feed
// the accumulated α — the small-N CPU-alone fallback must not drag a
// kernel's ratio toward zero, or ramped workloads (BFS frontiers that
// start tiny) would never use the GPU at all.
type record struct {
	alpha       float64 // sample-weighted accumulated offload ratio
	weight      float64 // total items behind alpha
	category    wclass.Category
	invocations int
	profiled    bool
	// reprofile forces the next invocation to profile again — set when
	// a profile was quarantined, cleared by the next clean accumulate.
	reprofile bool
	// pendingCat/pendingN implement classification hysteresis: the
	// candidate category recent profiles disagree toward, and how many
	// consecutive profiles have agreed on it.
	pendingCat wclass.Category
	pendingN   int
	// updatedAt is when the record last accumulated an observation —
	// the age side of the fast path's TTL/confidence check.
	updatedAt time.Time
}

// Report describes one ParallelFor invocation as executed by EAS.
type Report struct {
	// Alpha is the GPU offload ratio used for the post-profiling
	// remainder of the invocation.
	Alpha float64
	// Profiled is true when this invocation ran online profiling.
	Profiled bool
	// ProfileSteps counts the repeated profiling steps.
	ProfileSteps int
	// Category is the workload class used to pick the power curve
	// (meaningful only when Profiled).
	Category wclass.Category
	// CatKnown is true when Category was actually resolved this
	// invocation — profiled or replayed from the table. Small-N,
	// GPU-busy, and breaker-suppressed runs decide nothing and leave it
	// false, so per-category metrics never count the zero category as a
	// decision.
	CatKnown bool
	// GPUBusyFallback is true when the invocation ran CPU-only because
	// another application owned the GPU — either observed upfront (the
	// paper's A26 check) or after transient busy dispatches exhausted
	// the retry budget. Fallback runs never feed the α table.
	GPUBusyFallback bool
	// Retries counts every GPU dispatch attempt that found the device
	// busy, including the final attempt that exhausts the retry budget
	// on fallback paths — it is the number of busy rejections observed,
	// so dispatch attempts = successes + Retries.
	Retries int
	// Duration and EnergyJ are the invocation's simulated totals.
	Duration time.Duration
	EnergyJ  float64
	// ProfileDuration is the simulated time spent inside repeated
	// profiling steps (a subset of Duration; zero when not Profiled) —
	// the profiling overhead the paper's half-iterations rule bounds.
	ProfileDuration time.Duration
	// CPUEnergyJ, GPUEnergyJ and DRAMEnergyJ split the package energy
	// by RAPL domain (cores / integrated GPU / memory), measured across
	// the whole invocation inside the admission critical section so
	// concurrent tenants never see each other's energy.
	CPUEnergyJ, GPUEnergyJ, DRAMEnergyJ float64
	// CPUItems and GPUItems are the items each device processed.
	CPUItems, GPUItems float64
	// PredictedPower and PredictedTime are the model's estimates at
	// the chosen α for the remainder (diagnostics; zero if unprofiled).
	PredictedPower, PredictedTime float64
	// Telemetry grades how trustworthy this invocation's energy
	// measurement was (always Healthy when the robust meter is off).
	Telemetry robust.Health
	// MeterSamplesRejected counts MSR samples the robust meter rejected
	// and substituted during this invocation.
	MeterSamplesRejected int
	// ProfileQuarantined is true when this invocation's profile was
	// physically impossible and was discarded before reaching the α
	// table; ProfileSanitized when it was merely clamped to the
	// platform envelope.
	ProfileQuarantined, ProfileSanitized bool
	// BreakerOpen is true when the invocation ran CPU-only because the
	// GPU circuit breaker was open; BreakerState is the breaker's
	// position after the invocation (BreakerClosed when disabled).
	BreakerOpen  bool
	BreakerState robust.BreakerState
	// FastPath is true when a fresh, high-confidence table record let
	// this invocation skip a periodic re-profile
	// (Options.Decision.TableTTL / MinConfidence).
	FastPath bool
}

// MetricValue evaluates a metric over the invocation's measurements.
func (r Report) MetricValue(m metrics.Metric) float64 {
	return m.EvalEnergy(r.EnergyJ, r.Duration.Seconds())
}

// fillRecord copies a completed invocation's outcome into its observer
// record.
func (r *Report) fillRecord(inv *obs.Invocation) {
	inv.Alpha = r.Alpha
	if r.CatKnown {
		// Category.Key() is interned — no allocation on the hot path.
		inv.Category = r.Category.Key()
	}
	inv.Profiled, inv.FastPath = r.Profiled, r.FastPath
	inv.ProfileSteps = r.ProfileSteps
	inv.Duration, inv.ProfileDuration = r.Duration, r.ProfileDuration
	inv.EnergyJ = r.EnergyJ
	inv.CPUEnergyJ, inv.GPUEnergyJ, inv.DRAMEnergyJ = r.CPUEnergyJ, r.GPUEnergyJ, r.DRAMEnergyJ
	inv.Retries = r.Retries
	inv.MeterRejected = r.MeterSamplesRejected
	inv.Quarantined, inv.Sanitized = r.ProfileQuarantined, r.ProfileSanitized
	switch {
	case r.BreakerOpen:
		inv.Fallback = "breaker-open"
	case r.GPUBusyFallback:
		inv.Fallback = "gpu-busy"
	}
}

// exit notes in inv which CPU-only exit an invocation took before
// deciding anything.
func exit(inv *obs.Invocation, reason string) {
	if inv != nil {
		inv.Exit = reason
	}
}

// Scheduler is the energy-aware scheduling runtime. It is safe for
// concurrent use: it drives one engine/platform, and an admission gate
// serializes whole invocations onto it (by priority class, FIFO within
// a class), while the global table G is sharded and lock-protected so
// Alpha lookups and accumulations from any goroutine are race-free.
type Scheduler struct {
	eng    *engine.Engine
	model  *powerchar.Model
	metric metrics.Metric
	opts   Options
	adm    Admission   // serializes invocations onto the engine
	table  *alphaTable // the paper's global table G

	// curves is the model's curve set resolved to a dense array at
	// construction, so hot-path curve lookups are an index instead of a
	// map probe on a freshly built key string.
	curves  [wclass.NumCategories]powerchar.Curve
	curveOK [wclass.NumCategories]bool

	// audit is the immutable evaluation context decision-audit records
	// point back to (see auditModel), built once by auditSource().
	audit     *auditModel
	auditOnce sync.Once

	// Telemetry-robustness state (nil / zero when the knobs are off).
	rmeter  *robust.EnergyMeter // robust package-energy reader
	breaker *robust.Breaker     // GPU circuit breaker
	env     profile.Envelope    // platform plausibility envelope
	// invPredW is the model's predicted power for the in-flight
	// invocation — the substitution value when a meter sample is
	// rejected. Invocation-scoped: the admission gate serializes
	// access, so no lock is needed.
	invPredW float64

	// Durable-state layer (nil when Options.State.Path is empty).
	// stateMu serializes {table mutation + WAL append} against
	// {table export + compaction}, so a snapshot never absorbs a
	// mutation whose WAL record would then land in the fresh WAL and
	// replay twice on recovery. store is immutable after New: a write
	// failure disables the store internally instead of nil-ing the
	// field, keeping the hot-path check an unsynchronized pointer test.
	stateMu  sync.Mutex
	store    *statestore.Store
	recovery RecoveryStats
}

// New builds an EAS scheduler over an engine, a platform power
// characterization, and the energy metric to optimize.
func New(eng *engine.Engine, model *powerchar.Model, metric metrics.Metric, opts Options) (*Scheduler, error) {
	if eng == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	if model == nil || !model.Complete() {
		return nil, fmt.Errorf("core: power characterization model missing or incomplete")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("core: invalid metric")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:    eng,
		model:  model,
		metric: metric,
		opts:   opts.withDefaults(),
		table:  newAlphaTable(),
	}
	s.curves, s.curveOK = model.CurveTable()
	if s.opts.Observer.Enabled() {
		s.auditSource()
	}
	s.breaker = robust.NewBreaker(s.opts.BreakerThreshold, s.opts.BreakerProbeAfter)
	spec := eng.Platform().Spec()
	if s.opts.Robustness.Meter {
		// Package power physically cannot sustain far beyond TDP; 4×
		// leaves room for short turbo excursions.
		maxW := 4 * spec.Policy.TDPW
		if maxW <= 0 {
			maxW = 400
		}
		s.rmeter = robust.NewEnergyMeter(eng.Platform().MSR, robust.MeterConfig{
			MaxPlausiblePowerW: maxW, Window: 5, HampelK: 8, StuckReads: 4,
		})
	}
	if s.opts.Robustness.ValidateProfiles {
		s.env = profile.EnvelopeFor(spec)
	}
	if o := s.opts.Observer; o.Enabled() && s.breaker != nil {
		s.breaker.SetOnTransition(func(from, to robust.BreakerState) {
			o.RecordBreakerTransition(int(to))
		})
	}
	s.adm.Configure(s.opts.Admission)
	if o := s.opts.Observer; o.Enabled() {
		s.adm.onStall = o.RecordWatchdogStall
	}
	if s.opts.State.Path != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Admission returns the scheduler's admission gate, for queue-pressure
// gauges and statistics (Waiters, Stats).
func (s *Scheduler) Admission() *Admission { return &s.adm }

// SetTenantQuota overrides the admission token-bucket rate for one
// tenant. rate <= 0 exempts the tenant from quota enforcement.
func (s *Scheduler) SetTenantQuota(tenant string, rate, burst float64) {
	s.adm.SetTenantQuota(tenant, rate, burst)
}

// Breaker returns the GPU circuit breaker (nil when disabled). The
// runtime's functional layer records its own fallback outcomes —
// enqueue failures, dispatch timeouts — through it so breaker state
// reflects every path work can fail over to the CPU.
func (s *Scheduler) Breaker() *robust.Breaker { return s.breaker }

// Retry returns the scheduler's GPU retry policy with defaults
// applied, so the runtime's functional layer retries enqueues on the
// same budget as simulated dispatches.
func (s *Scheduler) Retry() Retry { return s.opts.Retry }

// Metric returns the objective the scheduler optimizes.
func (s *Scheduler) Metric() metrics.Metric { return s.metric }

// curve returns the characterization curve for a category from the
// dense table resolved at construction — an array index instead of
// building a key string and probing the model's map on every decision.
func (s *Scheduler) curve(cat wclass.Category) (powerchar.Curve, bool) {
	i := cat.Index()
	return s.curves[i], s.curveOK[i]
}

// Alpha returns the accumulated offload ratio remembered for a kernel,
// with ok=false for never-seen kernels. It is safe to call from any
// goroutine, including while invocations are in flight.
func (s *Scheduler) Alpha(kernelName string) (float64, bool) {
	rec, ok := s.table.lookup(kernelName)
	if !ok {
		return 0, false
	}
	return rec.alpha, true
}

// Kernels returns the number of kernels the global table remembers.
func (s *Scheduler) Kernels() int { return s.table.Len() }

// ParallelFor executes n parallel iterations of kernel k with
// energy-aware CPU-GPU partitioning — the EAS algorithm of Fig. 7.
// It is safe for concurrent use: callers queue at the admission gate
// and run one at a time against the simulated platform.
func (s *Scheduler) ParallelFor(k engine.Kernel, n int) (Report, error) {
	return s.ParallelForCtx(context.Background(), k, n)
}

// ParallelForCtx is ParallelFor with cancellable admission: a caller
// whose context is cancelled while queued behind other invocations
// returns ctx.Err() without touching the engine. Once admitted, the
// invocation runs to completion — it executes in virtual time and
// returns quickly, and an admitted tenant must not leave the simulated
// clock mid-phase.
func (s *Scheduler) ParallelForCtx(ctx context.Context, k engine.Kernel, n int) (Report, error) {
	if o := s.opts.Observer; o != nil {
		return s.parallelForObserved(ctx, o, k, n)
	}
	return s.ParallelForScoped(ctx, k, n, nil)
}

// parallelForObserved runs one invocation with its record on this
// frame, which only observed invocations pay for, and hands it to o.
func (s *Scheduler) parallelForObserved(ctx context.Context, o *obs.Observer, k engine.Kernel, n int) (Report, error) {
	inv := obs.Invocation{ID: o.NextInvocationID(), Kernel: k.Name, Start: time.Now()}
	rep, err := s.ParallelForScoped(ctx, k, n, &inv)
	inv.Fail(err)
	o.Finish(&inv)
	return rep, err
}

// ParallelForScoped is ParallelForCtx filling a caller-owned
// invocation record: the admission wait, profiling, the α search (with
// its Explain decision audit) and remainder execution are timed into
// inv, along with the decision, the energy split and every rare-path
// outcome. The caller owns the record — it hands it to
// Observer.Finish itself. A nil inv records nothing.
func (s *Scheduler) ParallelForScoped(ctx context.Context, k engine.Kernel, n int, inv *obs.Invocation) (Report, error) {
	if n <= 0 {
		return Report{}, fmt.Errorf("core: non-positive iteration count %d for kernel %q", n, k.Name)
	}
	// Resolve the kernel's interned table entry once; every table touch
	// on the invocation's hot path is a pointer dereference from here on.
	ent := s.table.intern(k.Name)

	// Admission: the gate reads the invocation's attributes (tenant,
	// class, deadline budget) from the context and may shed it with
	// ErrOverloaded before it touches anything.
	req := RequestFromContext(ctx)
	if inv != nil {
		inv.Tenant, inv.Class = req.Tenant, req.Class.String()
	}
	inv.Begin(obs.PhaseAdmit)
	ticket, err := s.adm.Acquire(ctx, req, nil)
	inv.End(obs.PhaseAdmit)
	if err != nil {
		// A typed load-shedding rejection is the gate's doing; the
		// record carries its reason. A cancelled wait is the caller's.
		var ov *ErrOverloaded
		if inv != nil && errors.As(err, &ov) {
			inv.Shed = ov.Reason
		}
		return Report{}, err
	}
	defer s.adm.Release(ticket)
	if d := s.eng.FaultPlan().TakeAdmissionHold(); d > 0 {
		if inv != nil {
			inv.Hold = d
		}
		s.holdAdmission(ctx, s.adm.Revocation(ticket), d)
	}
	rep, err := s.runAdmitted(k, n, inv, ent, ticket)
	if err == nil && inv != nil {
		rep.fillRecord(inv)
	}
	return rep, err
}

// holdAdmission is the scripted slow-tenant fault: it wedges the
// invocation, wall-clock, while it owns the gate — exactly the failure
// the watchdog exists for. The stall is interruptible by watchdog
// revocation (the grant's revocation signal) or the caller's own
// cancel.
func (s *Scheduler) holdAdmission(ctx context.Context, revoke <-chan struct{}, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-revoke:
	case <-ctx.Done():
	}
}

// runAdmitted is the admission critical section: the caller holds the
// gate under ticket; energy meters span the whole invocation so the
// deltas belong to this tenant alone. A force-released invocation
// returns ErrAdmissionRevoked instead of its report: a revoked gate
// means another tenant may have driven the engine concurrently.
func (s *Scheduler) runAdmitted(k engine.Kernel, n int, inv *obs.Invocation, ent *kernelEntry, ticket uint64) (Report, error) {
	if s.adm.Revoked(ticket) {
		return Report{}, ErrAdmissionRevoked
	}
	// The per-domain RAPL meters span the whole invocation; they live
	// inside the critical section so the deltas belong to this tenant
	// alone.
	p := s.eng.Platform()
	pp0 := msr.NewMeter(p.MSRPP0)
	pp1 := msr.NewMeter(p.MSRPP1)
	dram := msr.NewMeter(p.MSRDRAM)
	var pre robust.MeterStats
	if s.rmeter != nil {
		// Discard whatever interval elapsed since the previous tenant's
		// last sample; it is not this invocation's energy.
		s.rmeter.Resync()
		pre = s.rmeter.Stats()
		s.invPredW = 0
	}
	rep, err := s.parallelFor(k, n, inv, ent)
	if err != nil {
		return Report{}, err
	}
	rep.CPUEnergyJ = pp0.Joules()
	rep.GPUEnergyJ = pp1.Joules()
	rep.DRAMEnergyJ = dram.Joules()
	if s.rmeter != nil {
		post := s.rmeter.Stats()
		rejected := post.Rejected - pre.Rejected
		accepted := post.Accepted - pre.Accepted
		rep.MeterSamplesRejected = rejected
		switch {
		case post.Stuck, rejected > 0 && rejected >= accepted:
			rep.Telemetry = robust.Failed
		case rejected > 0:
			rep.Telemetry = robust.Degraded
		}
	}
	if rep.ProfileQuarantined || rep.ProfileSanitized {
		rep.Telemetry = rep.Telemetry.Worse(robust.Degraded)
	}
	rep.BreakerState = s.breaker.State()
	if s.adm.Revoked(ticket) {
		return Report{}, ErrAdmissionRevoked
	}
	return rep, nil
}

// parallelFor is the EAS algorithm proper (Fig. 7); the caller holds
// the admission gate. Three CPU-only exits decide nothing; every other
// invocation runs decide → execute → account over one Decision.
func (s *Scheduler) parallelFor(k engine.Kernel, n int, inv *obs.Invocation, ent *kernelEntry) (Report, error) {
	items := float64(n)
	// GPU owned by another application (the A26 check): CPU-only run,
	// nothing recorded. The breaker counts it like any other
	// GPU-unavailable fallback.
	if s.eng.Platform().GPUBusy() {
		exit(inv, "gpu-busy-upfront")
		return s.busyFallback(k, items, Report{})
	}
	// Too little parallelism to fill the GPU: multi-core CPU alone
	// (Fig. 7 steps 6-10). A tiny frontier says nothing about how larger
	// invocations should split.
	if items < float64(s.eng.Platform().GPUProfileSize()) {
		exit(inv, "small-n-cpu-only")
		return s.cpuOnly(k, items, Report{})
	}
	// Circuit breaker open: the GPU has been failing every recent
	// invocation, so stop paying dispatch+timeout latency.
	if !s.breaker.Allow() {
		exit(inv, "breaker-suppressed")
		return s.cpuOnly(k, items, Report{BreakerOpen: true})
	}

	var rep Report
	dec, src, nrem, err := s.decide(k, items, inv, ent, &rep)
	if err == nil {
		// Every source's Decision reaches the report and the robust
		// meter's substitute power here, and only here.
		rep.Alpha = dec.Alpha
		rep.Category = dec.Category
		rep.CatKnown = src != fromNone
		rep.PredictedPower, rep.PredictedTime = dec.PredictedPower, dec.PredictedTime
		if s.rmeter != nil && rep.CatKnown {
			if curve, ok := s.curve(dec.Category); ok {
				s.invPredW = curve.Power(dec.Alpha)
			}
		}
		err = s.execute(k, dec.Alpha, nrem, inv, &rep)
	}
	if errors.Is(err, engine.ErrGPUBusy) {
		// The GPU became (and stayed) busy while profiling or executing:
		// finish the remaining items CPU-only and remember nothing.
		if inv != nil {
			inv.FallbackItems = nrem
		}
		return s.busyFallback(k, nrem, rep)
	}
	if err != nil {
		return Report{}, err
	}
	s.account(k.Name, items, ent, &rep)
	return rep, nil
}

// source names where an invocation's Decision came from.
type source uint8

const (
	fromProfile  source = iota // online profiling + α search (Fig. 7 steps 11-22)
	fromTable                  // the accumulated α (steps 2-4), fast path included
	fromLastGood               // a quarantined profile, replaying the last known-good α
	fromNone                   // a quarantined profile of a kernel with no known-good α
)

// profileDue is the one rule for whether an invocation profiles: a
// kernel without a clean profiled record, a record older than
// Decision.TableTTL, and every ReprofileEvery-th invocation profile.
// rec.invocations counts completed recorded invocations, so this one's
// ordinal is rec.invocations+1: k=1 profiles every invocation and k=2
// fires first on the 2nd. A periodic re-profile of a fresh, confident
// record is skipped instead (fastPath). decide, its only caller,
// applies it under the admission gate.
func (s *Scheduler) profileDue(rec record, ok bool) (profile, fastPath bool) {
	switch {
	case !ok || !rec.profiled || rec.reprofile:
		return true, false
	case s.opts.Decision.TableTTL > 0 && !rec.updatedAt.IsZero() &&
		time.Since(rec.updatedAt) > s.opts.Decision.TableTTL:
		// The remembered α outlived its TTL: too old to trust, even if no
		// periodic re-profile was due.
		return true, false
	case s.opts.ReprofileEvery > 0 && (rec.invocations+1)%s.opts.ReprofileEvery == 0:
		fast := (s.opts.Decision.TableTTL != 0 || s.opts.Decision.MinConfidence != 0) &&
			rec.invocations >= s.opts.Decision.MinConfidence
		return !fast, fast
	}
	return false, false
}

// Decision is the outcome of one scheduling decision, whatever its
// source — profile + α search or table replay.
type Decision struct {
	// Alpha is the chosen GPU offload ratio.
	Alpha float64
	// Category is the workload class whose power curve won the search.
	Category wclass.Category
	// PredictedPower and PredictedTime are the model's estimates at
	// Alpha (diagnostics; zero when the α was replayed rather than
	// searched).
	PredictedPower, PredictedTime float64
}

// decide resolves the invocation's Decision and names its source: the
// table's accumulated α, or online profiling plus the α search — which
// a quarantined profile turns back into the last known-good α. nrem is
// what profiling left for execute.
func (s *Scheduler) decide(k engine.Kernel, n float64, inv *obs.Invocation, ent *kernelEntry, rep *Report) (dec Decision, src source, nrem float64, err error) {
	var rec record
	present := ent.snapshot(&rec)
	due, fast := s.profileDue(rec, present)
	rep.FastPath = fast
	if !due {
		return Decision{Alpha: rec.alpha, Category: rec.category}, fromTable, n, nil
	}

	acc, nrem, err := s.runProfile(k, n, inv, rep)
	if err != nil {
		return Decision{}, 0, nrem, err
	}
	rep.Profiled = true
	if s.opts.Robustness.ValidateProfiles {
		san, clamped, qerr := s.env.Sanitize(acc)
		if qerr != nil {
			// The profile is physically impossible: never let it near the
			// α table. Replay the last known-good split (or CPU-only for
			// unknown kernels) and force a fresh profile next invocation.
			rep.ProfileQuarantined = true
			if inv != nil {
				inv.QuarantineCause = qerr.Error()
			}
			ent.markReprofile()
			if s.store != nil {
				s.persistReprofile(k.Name)
			}
			if present && rec.profiled {
				return Decision{Alpha: rec.alpha, Category: rec.category}, fromLastGood, nrem, nil
			}
			return Decision{}, fromNone, nrem, nil
		}
		acc, rep.ProfileSanitized = san, clamped
	}

	// Search over at least half an invocation's work: profiling may have
	// consumed nearly everything (small N), and the α chosen here is what
	// the table replays on *future* invocations, so it must reflect a
	// representative workload size, not a remnant.
	searchN := max(nrem, n/2)
	cat := acc.ClassifyWith(searchN, s.opts.ShortLongThreshold, s.opts.MemoryBoundThreshold)
	curve, ok := s.curve(cat)
	if !ok {
		return Decision{}, 0, nrem, fmt.Errorf("core: characterization has no curve for %s", cat)
	}
	tm := TimeModel{RC: acc.RC, RG: acc.RG}
	if !tm.Valid() {
		return Decision{}, 0, nrem, fmt.Errorf("core: profiling produced no usable throughputs for kernel %q", k.Name)
	}
	inv.Begin(obs.PhaseSearch)
	alpha, _ := BestAlpha(curve, tm, searchN, s.metric, s.opts.AlphaStep)
	inv.End(obs.PhaseSearch)
	if inv != nil {
		s.explain(&inv.Explain, tm, searchN, alpha, cat)
	}
	return Decision{
		Alpha:          alpha,
		Category:       cat,
		PredictedPower: curve.Power(alpha),
		PredictedTime:  tm.Time(alpha, searchN),
	}, fromProfile, nrem, nil
}

// runProfile is Fig. 7 steps 11-22: repeated online profiling over the
// first half of the iterations. Each step's time, energy, items and
// busy retries go into rep; the merged observation and the items left
// come back. A GPU busy through a whole retry budget returns
// engine.ErrGPUBusy with nrem still counting the failed step's items.
func (s *Scheduler) runProfile(k engine.Kernel, n float64, inv *obs.Invocation, rep *Report) (acc profile.Observation, nrem float64, err error) {
	inv.Begin(obs.PhaseProfile)
	defer inv.End(obs.PhaseProfile)
	var prev profile.Observation
	nrem = n
	chunk := float64(s.eng.Platform().GPUProfileSize())
	stopAt := n * (1 - profileShare)
	for nrem > stopAt && nrem > 0 {
		gpuChunk := min(chunk, nrem)
		var ob profile.Observation
		var remaining float64
		err = s.retryBusy(rep, func() error {
			var e error
			ob, remaining, e = profile.Step(s.eng, k, gpuChunk, nrem-gpuChunk)
			return e
		})
		if err != nil {
			return acc, nrem, err
		}
		rep.ProfileSteps++
		if rep.ProfileSteps == 1 {
			acc = ob
		} else {
			acc = profile.Merge(acc, ob)
		}
		rep.Duration += ob.Duration
		rep.ProfileDuration += ob.Duration
		rep.EnergyJ += s.measureEnergy(ob.Duration, ob.EnergyJ)
		rep.CPUItems += ob.CPUItems
		rep.GPUItems += ob.GPUItems
		nrem = remaining
		if s.opts.MaxProfileSteps > 0 && rep.ProfileSteps >= s.opts.MaxProfileSteps {
			break
		}
		if s.opts.ConvergeTol > 0 && rep.ProfileSteps >= 2 &&
			within(ob.RC, prev.RC, s.opts.ConvergeTol) &&
			within(ob.RG, prev.RG, s.opts.ConvergeTol) {
			break
		}
		prev = ob
		if s.opts.GrowProfileChunk {
			chunk *= 2
		}
	}
	if inv != nil {
		inv.RC, inv.RG = acc.RC, acc.RG
	}
	return acc, nrem, nil
}

// execute runs the post-profiling remainder at the decided split (Fig.
// 7 steps 23-25), retrying busy GPU dispatches on the Retry budget. A
// budget exhausted by a busy GPU returns engine.ErrGPUBusy for
// parallelFor's CPU-only fallback.
func (s *Scheduler) execute(k engine.Kernel, alpha, nrem float64, inv *obs.Invocation, rep *Report) error {
	if nrem <= 0 {
		return nil
	}
	inv.Begin(obs.PhaseExecute)
	defer inv.End(obs.PhaseExecute)
	var res engine.Result
	err := s.retryBusy(rep, func() error {
		var e error
		res, e = s.eng.Run(engine.Phase{
			Kernel:    k,
			GPUItems:  alpha * nrem,
			PoolItems: (1 - alpha) * nrem,
		})
		return e
	})
	if err != nil {
		return err
	}
	s.addResult(rep, res)
	return nil
}

// cpuOnly runs items on the CPU pool alone and folds the run into rep.
// Every CPU-only exit comes through here, and none feeds the α table:
// a run that never offered the GPU its share says nothing about the
// kernel's best split.
func (s *Scheduler) cpuOnly(k engine.Kernel, items float64, rep Report) (Report, error) {
	if items > 0 {
		res, err := s.eng.Run(engine.Phase{Kernel: k, PoolItems: items})
		if err != nil {
			return Report{}, err
		}
		s.addResult(&rep, res)
	}
	return rep, nil
}

// busyFallback is the CPU-only exit for an unavailable GPU — owned by
// another application up front, or busy through a whole retry budget
// mid-invocation. The breaker counts it as a GPU fallback.
func (s *Scheduler) busyFallback(k engine.Kernel, items float64, rep Report) (Report, error) {
	rep, err := s.cpuOnly(k, items, rep)
	if err != nil {
		return Report{}, err
	}
	rep.GPUBusyFallback = true
	rep.Alpha = 0
	s.breaker.RecordFallback()
	return rep, nil
}

// account closes an invocation that ran as decided. Touching the GPU
// (profiling chunks and/or an α>0 remainder) without falling back
// proves the device works, so the breaker records a success. Fig. 7
// step 26 then accumulates the sample-weighted α — through the WAL when
// state is durable — unless the profile was quarantined.
func (s *Scheduler) account(name string, n float64, ent *kernelEntry, rep *Report) {
	if rep.Profiled || rep.Alpha > 0 {
		s.breaker.RecordSuccess()
	}
	if rep.ProfileQuarantined {
		return
	}
	if s.store == nil {
		ent.accumulate(rep.Alpha, n, rep.Category, s.opts.Robustness.CategoryHysteresis)
	} else {
		s.accumulatePersist(ent, name, rep.Alpha, n, rep.Category)
	}
}

// retryBusy runs op, retrying GPU-busy dispatch failures with capped
// exponential backoff spent as simulated idle time (so the clock and
// the energy MSR both see the stall). The last error — nil, a
// non-busy failure, or the final busy — is returned. Every busy
// rejection counts toward rep.Retries, including the final attempt
// that exhausts the budget: Retries is the number of busy dispatches
// observed, not the number of backoffs slept.
func (s *Scheduler) retryBusy(rep *Report, op func() error) error {
	backoff := s.opts.Retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, engine.ErrGPUBusy) {
			return err
		}
		rep.Retries++
		if attempt >= s.opts.Retry.MaxAttempts {
			return err
		}
		meter := msr.NewMeter(s.eng.Platform().MSR)
		s.eng.RunIdle(backoff, nil)
		rep.Duration += backoff
		rep.EnergyJ += s.measureEnergy(backoff, meter.Joules())
		backoff *= 2
		if backoff > s.opts.Retry.MaxBackoff {
			backoff = s.opts.Retry.MaxBackoff
		}
	}
}

// explain fills ex, the invocation record's decision audit, with the
// α grid search: the measured throughputs, the workload category and
// fitted curve the search ran against, and the chosen α with its
// objective value. The objective at every grid point is a pure
// function of these inputs, so the record stores them and Explain.Grid
// rebuilds the landscape only when a trace is exported; the decision
// path pays for one objective evaluation and no allocation.
func (s *Scheduler) explain(ex *obs.Explain, tm TimeModel, searchN, alpha float64, cat wclass.Category) {
	m := s.auditSource()
	i := cat.Index()
	*ex = obs.Explain{
		RC:        tm.RC,
		RG:        tm.RG,
		SearchN:   searchN,
		Category:  cat.Key(),
		CurveID:   m.curveIDs[i],
		Curve:     i,
		AlphaStep: s.opts.AlphaStep,
		Alpha:     alpha,
		Source:    m,
	}
	ex.Objective = m.Objective(ex, alpha)
}

// auditSource returns the scheduler's audit model. New builds it when
// an Observer is configured; a caller-supplied record on a scheduler
// without one (ParallelForScoped) builds it on first use. Schedulers
// that never explain a decision never pay for the curve ids.
func (s *Scheduler) auditSource() *auditModel {
	s.auditOnce.Do(func() { s.audit = newAuditModel(s.curves, s.curveOK, s.metric) })
	return s.audit
}

// auditModel is what decision-audit records need to rebuild their
// objective grid: the curve table, each curve's identifier, and the
// metric. It is built once per scheduler and never mutated. It, not
// the Scheduler, is the Explain's GridSource, so records retained by a
// shared observer never pin a closed runtime's engine, table or WAL.
type auditModel struct {
	curves   [wclass.NumCategories]powerchar.Curve
	curveIDs [wclass.NumCategories]string
	metric   metrics.Metric
}

func newAuditModel(curves [wclass.NumCategories]powerchar.Curve, ok [wclass.NumCategories]bool, metric metrics.Metric) *auditModel {
	m := &auditModel{curves: curves, metric: metric}
	for i, c := range curves {
		if ok[i] {
			m.curveIDs[i] = fmt.Sprintf("%s~deg%d(r2=%.3f)", c.Category.Key(), len(c.Coeffs)-1, c.R2)
		}
	}
	return m
}

// Objective implements obs.GridSource with the same Objective closure
// the search minimized, so rebuilt grids are bit-identical.
func (m *auditModel) Objective(ex *obs.Explain, alpha float64) float64 {
	return Objective(m.curves[ex.Curve], TimeModel{RC: ex.RC, RG: ex.RG}, ex.SearchN, m.metric)(alpha)
}

// within reports whether a and b agree within relative tolerance tol.
func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	m := a
	if b > m {
		m = b
	}
	return m > 0 && diff/m <= tol
}

// addResult folds an engine result into the report, routing its energy
// through the robust meter when one is configured.
func (s *Scheduler) addResult(rep *Report, res engine.Result) {
	rep.Duration += res.Duration
	rep.EnergyJ += s.measureEnergy(res.Duration, res.EnergyJ)
	rep.CPUItems += res.CPUItems
	rep.GPUItems += res.GPUItems
}

// measureEnergy returns the energy to account for an interval of
// simulated duration d whose raw (engine-measured) energy was raw.
// Without a robust meter it is the identity on raw — byte-identical to
// the historical accounting. With one, the robust meter re-reads the
// MSR itself, judges the sample, and substitutes the model's predicted
// power for the in-flight invocation when the sample is untrustworthy.
func (s *Scheduler) measureEnergy(d time.Duration, raw float64) float64 {
	if s.rmeter == nil {
		return raw
	}
	j, _ := s.rmeter.Measure(d, s.invPredW)
	return j
}

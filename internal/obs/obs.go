// Package obs is the runtime's zero-dependency observability layer:
// one fixed-size record per invocation, a decision-audit record inside
// it, and a lock-light metrics registry with Prometheus text
// exposition.
//
// The scheduling pipeline is a black box by design — it profiles,
// classifies, searches α, and possibly degrades through retries, CPU
// fallback, or an open circuit breaker, all behind one ParallelFor
// call. This package opens a window into that pipeline without
// changing it:
//
//   - Records: every invocation fills one Invocation value on its own
//     stack — the wall time of each phase (admission wait, profile,
//     α search, execute, functional), the decision, the energy split,
//     and the rare-path outcomes (CPU-only exits, fallbacks, retries,
//     quarantined profiles, admission holds) — and hands it to
//     Observer.Finish once. RingSink keeps the last N records for
//     post-mortem dumps; WriteChromeTrace expands them into Chrome
//     trace-event JSON that Perfetto and chrome://tracing load
//     directly, one track per invocation.
//   - Decision audit: the record's Explain holds the α search's inputs
//     — measured throughputs R_C/R_G, the chosen workload category, the
//     fitted P(α) curve. The objective at every α grid point is rebuilt
//     from them on export (Explain.Grid), bit-identical to what the
//     search evaluated, so "why α=0.6?" is answerable from the trace
//     alone at a fixed per-decision cost.
//   - Metrics: Registry holds atomic counters, gauges, and fixed-bucket
//     histograms with a Prometheus text writer and an optional HTTP
//     handler (/metrics, /debug/trace).
//
// Everything is nil-safe and off by default: a nil *Observer and a nil
// *Invocation make every hook a no-op, so the disabled hot path
// allocates nothing.
package obs

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// GridPoint is the objective value at one α of the scheduler's grid
// search.
type GridPoint struct {
	Alpha     float64
	Objective float64
}

// GridSource evaluates the objective an Explain's α search minimized.
// The producer (the scheduler) supplies an immutable implementation at
// decision time so Explain.Grid can rebuild the search landscape on
// export instead of storing it with every decision.
type GridSource interface {
	Objective(ex *Explain, alpha float64) float64
}

// Explain is the decision audit of one α search, held by value in the
// invocation's record: the full evidence behind one α choice (the
// paper's eqs. 1-4 evaluated on this invocation's online profile). It
// records the search's inputs, a fixed handful of words; the objective
// at every grid point is a pure function of them and is rebuilt by
// Grid only when the trace is exported.
type Explain struct {
	// RC and RG are the measured combined-mode throughputs (items/s).
	RC, RG float64
	// SearchN is the workload size (items) the search optimized for.
	SearchN float64
	// Category is the chosen workload class key (e.g. "mem-cpuS-gpuL").
	Category string
	// CurveID identifies the fitted P(α) curve the search evaluated;
	// Curve is its index in Source's curve set.
	CurveID string
	Curve   int
	// AlphaStep is the grid granularity searched.
	AlphaStep float64
	// Alpha and Objective are the winning ratio and its objective value.
	Alpha, Objective float64
	// Source evaluates the objective for Grid. Nil leaves the grid
	// empty.
	Source GridSource
}

// Grid rebuilds the objective value at each grid point α = i/steps,
// i = 0..steps, exactly as the search walked it. It allocates, so it
// belongs on export paths, never the decision path.
func (ex *Explain) Grid() []GridPoint {
	if ex == nil || ex.Source == nil {
		return nil
	}
	// The search's own rule (core.BestAlpha): a step outside (0, 1],
	// NaN included, walks the paper's 0.1 grid.
	step := ex.AlphaStep
	if !(step > 0 && step <= 1) {
		step = 0.1
	}
	steps := int(math.Round(1 / step))
	if steps < 1 {
		steps = 1
	}
	grid := make([]GridPoint, steps+1)
	for i := range grid {
		a := float64(i) / float64(steps)
		grid[i] = GridPoint{Alpha: a, Objective: ex.Source.Objective(ex, a)}
	}
	return grid
}

// Observer is the root of the observability layer: it owns the ring
// invocation records flow into and the registry metrics flow into. All
// methods are nil-receiver-safe, so instrumented code holds a
// possibly-nil *Observer and calls through unconditionally; the
// disabled path is a pointer test.
type Observer struct {
	ring   *RingSink
	reg    *Registry
	invSeq atomic.Uint64

	// Pre-resolved instruments: resolved once at construction so the
	// per-invocation path never touches the registry's map.
	invocations   *Counter
	latency       *Histogram
	profileLat    *Histogram
	alphaDist     *Histogram
	retries       *Counter
	profiled      *Counter
	profileSteps  *Counter
	quarantined   *Counter
	sanitized     *Counter
	meterRejected *Counter
	fallbacks     *CounterVec
	breakerState  *Gauge
	breakerTrans  *Counter
	watchdogStall *Counter
	fastPath      *Counter
	poolReuse     *Counter

	// Durable-state instruments (internal/statestore).
	stateRecords   *Counter
	stateBytes     *Counter
	stateErrors    *Counter
	stateSnapshots *Counter
	stateLoaded    *Counter
	stateCorrupt   *Counter
	stateRejected  *Counter
	drainSeconds   *Histogram

	// Per-tenant attribution families (labels.go): interned label
	// tuples behind a hard cardinality cap, so user-supplied tenant ids
	// cannot blow up the exposition.
	tenantInv      *CounterVec      // {tenant,class}
	tenantLatency  *HistogramVec    // {tenant}
	tenantShed     *CounterVec      // {tenant,reason}
	tenantFastPath *CounterVec      // {tenant}
	tenantEnergy   *FloatCounterVec // {tenant,domain}
	catDecisions   *CounterVec      // {category}

	// flight is the black-box incident recorder (nil unless attached).
	flight *FlightRecorder
}

// DefaultTenantCardinality caps the distinct tenants the attribution
// families track before folding newcomers into the overflow bucket.
const DefaultTenantCardinality = 64

// AnonTenant is the attribution label for invocations that carried no
// tenant identity (the empty tenant is valid at the admission gate).
const AnonTenant = "anon"

// DefBuckets are the invocation-latency histogram bounds in seconds:
// three decades around the sub-millisecond scheduling decisions and the
// millisecond-to-second functional executions.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// AlphaBuckets bound the α-distribution histogram: one bucket per 0.1
// step of the paper's grid.
var AlphaBuckets = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// New builds an observer keeping invocation records in ring (nil keeps
// metrics only) and metrics in reg (nil allocates a fresh Registry).
func New(ring *RingSink, reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		ring: ring,
		reg:  reg,
		invocations: reg.Counter("eas_invocations_total",
			"ParallelFor invocations completed."),
		latency: reg.Histogram("eas_invocation_seconds",
			"Wall-clock invocation latency (scheduling plus functional execution).", DefBuckets),
		profileLat: reg.Histogram("eas_profile_seconds",
			"Online-profiling overhead per profiled invocation (simulated seconds).", DefBuckets),
		alphaDist: reg.Histogram("eas_alpha",
			"Distribution of chosen GPU offload ratios.", AlphaBuckets),
		retries: reg.Counter("eas_gpu_retries_total",
			"GPU dispatch/enqueue attempts that found the device busy."),
		profiled: reg.Counter("eas_invocations_profiled_total",
			"Invocations that ran online profiling."),
		profileSteps: reg.Counter("eas_profile_steps_total",
			"Repeated online-profiling steps executed."),
		quarantined: reg.Counter("eas_profiles_quarantined_total",
			"Online profiles rejected as physically impossible."),
		sanitized: reg.Counter("eas_profiles_sanitized_total",
			"Online profiles clamped to the platform envelope."),
		meterRejected: reg.Counter("eas_meter_samples_rejected_total",
			"MSR energy samples the robust meter rejected and substituted."),
		fallbacks: reg.CounterVec("eas_fallbacks_total",
			"Invocations that deviated from the planned split, by reason.",
			[]string{"reason"}, 8),
		breakerState: reg.Gauge("eas_breaker_state",
			"GPU circuit breaker position (0=closed, 1=open, 2=half-open)."),
		breakerTrans: reg.Counter("eas_breaker_transitions_total",
			"GPU circuit breaker state transitions."),
		watchdogStall: reg.Counter("eas_watchdog_stalls_total",
			"Admission holds force-released by the runtime watchdog."),
		fastPath: reg.Counter("eas_decisions_fastpath_total",
			"Invocations whose fresh, high-confidence α skipped a periodic re-profile."),
		poolReuse: reg.Counter("eas_pool_reuse_total",
			"Reports served from the pool of released Reports instead of the heap."),
		stateRecords: reg.Counter("eas_state_wal_records_total",
			"Mutation records appended to the durable-state WAL."),
		stateBytes: reg.Counter("eas_state_wal_bytes_total",
			"Bytes appended to the durable-state WAL."),
		stateErrors: reg.Counter("eas_state_wal_errors_total",
			"Durable-state write failures (each permanently disables persistence for the run)."),
		stateSnapshots: reg.Counter("eas_state_snapshots_total",
			"Durable-state compactions into an atomic snapshot."),
		stateLoaded: reg.Counter("eas_state_recovered_records_total",
			"Records recovered and admitted into the α table at startup."),
		stateCorrupt: reg.Counter("eas_state_corrupt_records_total",
			"Persisted records skipped at recovery for framing/CRC corruption (torn tails count once)."),
		stateRejected: reg.Counter("eas_state_rejected_records_total",
			"Recovered records refused by evidence sanitization (non-finite α, zero items, bad category)."),
		drainSeconds: reg.Histogram("eas_drain_seconds",
			"Graceful-drain duration of Runtime.Close: waiting out in-flight invocations plus the state flush.", DefBuckets),
		tenantInv: reg.CounterVec("eas_tenant_invocations_total",
			"ParallelFor invocations completed, by tenant and priority class.",
			[]string{"tenant", "class"}, 3*DefaultTenantCardinality),
		tenantLatency: reg.HistogramVec("eas_tenant_invocation_seconds",
			"Wall-clock invocation latency by tenant.",
			[]string{"tenant"}, DefBuckets, DefaultTenantCardinality),
		tenantShed: reg.CounterVec("eas_tenant_shed_total",
			"Invocations shed at the admission gate, by tenant and reason.",
			[]string{"tenant", "reason"}, 3*DefaultTenantCardinality),
		tenantFastPath: reg.CounterVec("eas_tenant_fastpath_total",
			"Invocations whose fresh table record skipped a re-profile, by tenant.",
			[]string{"tenant"}, DefaultTenantCardinality),
		tenantEnergy: reg.FloatCounterVec("eas_tenant_energy_joules_total",
			"Attributed package energy by tenant and RAPL domain (cpu/gpu/dram), measured inside the admission critical section.",
			[]string{"tenant", "domain"}, 3*DefaultTenantCardinality),
		catDecisions: reg.CounterVec("eas_decisions_by_category_total",
			"Scheduling decisions by resolved workload category.",
			[]string{"category"}, 16),
	}
	// Runtime GC/memory health, read at scrape time only (ReadMemStats
	// briefly stops the world, so it must never sit on the hot path).
	gcPause := reg.Gauge("eas_gc_pause_ns",
		"Cumulative GC stop-the-world pause time (runtime.MemStats.PauseTotalNs).")
	heapAlloc := reg.Gauge("eas_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	reg.RegisterCollector(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcPause.Set(float64(ms.PauseTotalNs))
		heapAlloc.Set(float64(ms.HeapAlloc))
	})
	return o
}

// RecordPoolReuse counts one Report served from the runtime's pool of
// released Reports instead of a fresh allocation.
func (o *Observer) RecordPoolReuse() {
	if o == nil {
		return
	}
	o.poolReuse.Inc()
}

// Registry returns the observer's metrics registry (nil for a nil
// observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Enabled reports whether the observer is live.
func (o *Observer) Enabled() bool { return o != nil }

// NextInvocationID allocates the next id from the observer's monotonic
// invocation sequence. Sharing one observer between several schedulers
// or runtimes keeps ids (and therefore trace tracks) unique across all
// of them; a nil observer returns 0.
func (o *Observer) NextInvocationID() uint64 {
	if o == nil {
		return 0
	}
	return o.invSeq.Add(1)
}

// Finish closes an invocation's record: it stamps the wall-clock
// latency, copies the record into the ring, and folds an invocation
// that completed (no Err) into the registry and the flight recorder.
// It is the one call the runtime makes per observed invocation.
func (o *Observer) Finish(r *Invocation) {
	if o == nil || r == nil {
		return
	}
	r.Wall = time.Since(r.Start)
	if o.ring != nil {
		o.ring.Put(r)
	}
	if r.Err != "" {
		return
	}
	seconds := r.Wall.Seconds()
	o.invocations.Inc()
	o.latency.Observe(seconds)
	o.alphaDist.Observe(r.Alpha)
	if n := r.Retries + r.EnqueueRetries; n > 0 {
		o.retries.Add(uint64(n))
	}
	if r.Profiled {
		o.profiled.Inc()
		o.profileSteps.Add(uint64(r.ProfileSteps))
		o.profileLat.Observe(r.ProfileDuration.Seconds())
	}
	if r.Fallback != "" {
		o.fallbacks.With1(r.Fallback).Inc()
	}
	if r.MeterRejected > 0 {
		o.meterRejected.Add(uint64(r.MeterRejected))
	}
	if r.Quarantined {
		o.quarantined.Inc()
	}
	if r.Sanitized {
		o.sanitized.Inc()
	}
	if r.FastPath {
		o.fastPath.Inc()
	}

	// Per-tenant attribution. Tenant ids are user-supplied; the families
	// intern them behind a hard cardinality cap, so the hot path here is
	// an RLock and a map probe per family, allocation-free.
	tenant := r.Tenant
	if tenant == "" {
		tenant = AnonTenant
	}
	class := r.Class
	if class == "" {
		class = "interactive"
	}
	o.tenantInv.With2(tenant, class).Inc()
	o.tenantLatency.With1(tenant).Observe(seconds)
	if r.FastPath {
		o.tenantFastPath.With1(tenant).Inc()
	}
	if r.CPUEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "cpu").Add(r.CPUEnergyJ)
	}
	if r.GPUEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "gpu").Add(r.GPUEnergyJ)
	}
	if r.DRAMEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "dram").Add(r.DRAMEnergyJ)
	}
	if r.Category != "" {
		o.catDecisions.With1(r.Category).Inc()
	}
	if o.flight != nil {
		o.flight.RecordDecision(r.Kernel, tenant, r.Category,
			r.Alpha, seconds, r.FastPath)
		if r.Fallback != "" {
			o.flight.RecordDegradation(r.Kernel, tenant, r.Fallback)
		}
	}
}

// RecordShed counts one admission-gate load-shedding rejection against
// its tenant and reason, and lands a shed event in the flight ring.
func (o *Observer) RecordShed(tenant, class, reason string) {
	if o == nil {
		return
	}
	if tenant == "" {
		tenant = AnonTenant
	}
	o.tenantShed.With2(tenant, reason).Inc()
	if o.flight != nil {
		o.flight.RecordShed(tenant, class, reason)
	}
}

// AttachFlight arms the black-box flight recorder: every subsequent
// decision, shed, breaker transition, watchdog stall, and WAL error
// lands in its ring, and the policy's trigger conditions freeze the
// ring into incident dumps. Attach before the runtime starts serving;
// the recorder itself is concurrency-safe, but the o.flight pointer is
// written without synchronization. Returns the recorder (nil for a
// nil observer).
func (o *Observer) AttachFlight(p FlightPolicy) *FlightRecorder {
	if o == nil {
		return nil
	}
	o.flight = NewFlightRecorder(p, o.reg)
	return o.flight
}

// Flight returns the attached flight recorder (nil when none).
func (o *Observer) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// RecordStateAppend counts one mutation record (of the given framed
// size) appended to the durable-state WAL.
func (o *Observer) RecordStateAppend(bytes int) {
	if o == nil {
		return
	}
	o.stateRecords.Inc()
	if bytes > 0 {
		o.stateBytes.Add(uint64(bytes))
	}
}

// RecordStateError counts one durable-state write failure — the event
// that permanently disables persistence for the run.
func (o *Observer) RecordStateError() {
	if o == nil {
		return
	}
	o.stateErrors.Inc()
	o.flight.RecordWALError()
}

// RecordStateSnapshot counts one compaction into an atomic snapshot.
func (o *Observer) RecordStateSnapshot() {
	if o == nil {
		return
	}
	o.stateSnapshots.Inc()
}

// RecordStateRecovery folds one startup recovery into the registry:
// records admitted into the table, frames skipped as corrupt, and
// records refused by evidence sanitization.
func (o *Observer) RecordStateRecovery(loaded, corrupt, rejected int) {
	if o == nil {
		return
	}
	if loaded > 0 {
		o.stateLoaded.Add(uint64(loaded))
	}
	if corrupt > 0 {
		o.stateCorrupt.Add(uint64(corrupt))
	}
	if rejected > 0 {
		o.stateRejected.Add(uint64(rejected))
	}
}

// RecordDrain observes one graceful-drain duration from Runtime.Close.
func (o *Observer) RecordDrain(seconds float64) {
	if o == nil {
		return
	}
	o.drainSeconds.Observe(seconds)
}

// RecordWatchdogStall notes one watchdog force-release of the
// admission gate: the stall counter increments and a stall record (the
// wedged tenant and the time held) lands in the ring, exported as a
// "watchdog-stall" instant, so overload incidents are visible on the
// Perfetto timeline, not only in counters.
func (o *Observer) RecordWatchdogStall(tenant string, held time.Duration) {
	if o == nil {
		return
	}
	o.watchdogStall.Inc()
	if o.ring != nil {
		o.ring.Put(&Invocation{Stall: true, Tenant: tenant, Hold: held, Start: time.Now()})
	}
	o.flight.RecordWatchdogStall(tenant, held)
}

// RecordBreakerTransition notes one circuit-breaker state change
// (states encoded 0=closed, 1=open, 2=half-open). It is the one writer
// of eas_breaker_state, so several runtimes sharing the observer never
// overwrite another's open breaker with their own closed one.
func (o *Observer) RecordBreakerTransition(to int) {
	if o == nil {
		return
	}
	o.breakerTrans.Inc()
	o.breakerState.Set(float64(to))
	o.flight.RecordBreaker(to, breakerStateName(to))
}

// breakerStateName maps the runtime's breaker-state encoding to its
// label (mirrors robust.BreakerState without importing it).
func breakerStateName(state int) string {
	switch state {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	}
	return "unknown"
}

// TenantAccount is one tenant's accounting snapshot, the unit of the
// /debug/tenants endpoint.
type TenantAccount struct {
	Tenant            string             `json:"tenant"`
	Invocations       map[string]uint64  `json:"invocations_by_class,omitempty"`
	Shed              map[string]uint64  `json:"shed_by_reason,omitempty"`
	FastPath          uint64             `json:"fastpath,omitempty"`
	LatencyCount      uint64             `json:"latency_count,omitempty"`
	LatencySumSeconds float64            `json:"latency_sum_seconds,omitempty"`
	EnergyJ           map[string]float64 `json:"energy_joules_by_domain,omitempty"`
}

// TenantAccounting snapshots the per-tenant attribution families as a
// tenant-sorted accounting report (the overflow bucket, when
// populated, appears as the "overflow" tenant).
func (o *Observer) TenantAccounting() []TenantAccount {
	if o == nil {
		return nil
	}
	byTenant := make(map[string]*TenantAccount)
	acct := func(tenant string) *TenantAccount {
		a := byTenant[tenant]
		if a == nil {
			a = &TenantAccount{Tenant: tenant}
			byTenant[tenant] = a
		}
		return a
	}
	keys, invs := o.tenantInv.snapshot()
	for i, k := range keys {
		a := acct(k[0])
		if a.Invocations == nil {
			a.Invocations = make(map[string]uint64)
		}
		a.Invocations[k[1]] += invs[i].Value()
	}
	keys, sheds := o.tenantShed.snapshot()
	for i, k := range keys {
		a := acct(k[0])
		if a.Shed == nil {
			a.Shed = make(map[string]uint64)
		}
		a.Shed[k[1]] += sheds[i].Value()
	}
	keys, fast := o.tenantFastPath.snapshot()
	for i, k := range keys {
		acct(k[0]).FastPath += fast[i].Value()
	}
	keys, lat := o.tenantLatency.snapshot()
	for i, k := range keys {
		a := acct(k[0])
		a.LatencyCount += lat[i].Count()
		a.LatencySumSeconds += lat[i].Sum()
	}
	keys, energy := o.tenantEnergy.snapshot()
	for i, k := range keys {
		a := acct(k[0])
		if a.EnergyJ == nil {
			a.EnergyJ = make(map[string]float64)
		}
		a.EnergyJ[k[1]] += energy[i].Value()
	}
	out := make([]TenantAccount, 0, len(byTenant))
	for _, a := range byTenant {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Package obs is the runtime's zero-dependency observability layer:
// structured per-invocation span traces, decision-audit records, and a
// lock-light metrics registry with Prometheus text exposition.
//
// The scheduling pipeline is a black box by design — it profiles,
// classifies, searches α, and possibly degrades through retries, CPU
// fallback, or an open circuit breaker, all behind one ParallelFor
// call. This package opens a window into that pipeline without
// changing it:
//
//   - Tracing: every invocation becomes a span tree (profile →
//     alpha-search → execute, plus instant events for retries and
//     fallbacks) emitted through a pluggable Sink. RingSink keeps the
//     last N spans for post-mortem dumps; WriteChromeTrace renders a
//     ring snapshot as Chrome trace-event JSON that Perfetto and
//     chrome://tracing load directly, one track per invocation.
//   - Decision audit: the alpha-search span carries an Explain record —
//     measured throughputs R_C/R_G, the chosen workload category, the
//     fitted P(α) curve, and the search's remaining inputs. The
//     objective at every α grid point is rebuilt from them on export
//     (Explain.Grid), bit-identical to what the search evaluated, so
//     "why α=0.6?" is answerable from the trace alone at a fixed
//     per-decision cost.
//   - Metrics: Registry holds atomic counters, gauges, and fixed-bucket
//     histograms with a Prometheus text writer and an optional HTTP
//     handler (/metrics, /debug/trace).
//
// Everything is nil-safe and off by default: a nil *Observer makes
// every hook a no-op, and the instrumented call sites guard their
// attribute construction behind Enabled() so the disabled hot path
// allocates nothing.
package obs

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// SpanKind distinguishes duration spans from instantaneous markers.
type SpanKind uint8

const (
	// KindSpan is a duration span with distinct start and end times.
	KindSpan SpanKind = iota
	// KindInstant is a zero-duration marker (a retry, a fallback, a
	// breaker transition).
	KindInstant
)

// Attr is one key/value label on a span: either a string or a number.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Str: value} }

// Num builds a numeric attribute.
func Num(key string, value float64) Attr { return Attr{Key: key, Num: value, IsNum: true} }

// MaxAttrs is the number of attributes a span carries; the widest
// instrumented site, a degraded invocation's root span, has four.
const MaxAttrs = 4

// Attrs is a span's attribute list held by value, so emitting a span
// allocates nothing for its labels and a sink that stores the span
// owns a copy.
type Attrs struct {
	list [MaxAttrs]Attr
	n    uint8
}

// AttrsOf copies the first MaxAttrs of attrs; any further ones are
// dropped.
func AttrsOf(attrs ...Attr) Attrs {
	var a Attrs
	a.n = uint8(copy(a.list[:], attrs))
	return a
}

// List returns the attributes as a slice of a's storage.
func (a *Attrs) List() []Attr { return a.list[:a.n] }

// Len returns the number of attributes.
func (a Attrs) Len() int { return int(a.n) }

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

// Explain is the decision audit attached to an alpha-search span: the
// full evidence behind one α choice (the paper's eqs. 1-4 evaluated on
// this invocation's online profile). It records the search's inputs,
// a fixed handful of words; the objective at every grid point is a
// pure function of them and is rebuilt by Grid only when the trace is
// exported. An Explain is immutable once emitted.
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

// Span is one completed trace record. IDs are process-unique and
// monotonic; Parent is zero for invocation roots.
type Span struct {
	ID         uint64
	Parent     uint64
	Invocation uint64
	Kind       SpanKind
	Name       string
	Kernel     string
	Start, End time.Time
	Attrs      Attrs
	Explain    *Explain
}

// Sink receives completed spans. Implementations must be safe for
// concurrent use. The span is a value — its attributes included — and
// the runtime hands over the immutable Explain on emission, so a sink
// may keep what it receives.
type Sink interface {
	Emit(sp Span)
}

// Observer is the root of the observability layer: it owns the sink
// spans flow into and the registry metrics flow into, and hands out
// per-invocation Scopes. All methods are nil-receiver-safe, so
// instrumented code holds a possibly-nil *Observer and calls through
// unconditionally; the disabled path is a pointer test.
type Observer struct {
	sink    Sink
	reg     *Registry
	spanIDs atomic.Uint64
	// epoch anchors span times: now() is epoch plus the monotonic time
	// since, one clock read instead of time.Now's two.
	epoch  time.Time
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

// New builds an observer emitting spans into sink (nil keeps metrics
// only) and metrics into reg (nil allocates a fresh Registry).
func New(sink Sink, reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		sink:  sink,
		reg:   reg,
		epoch: time.Now(),
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

// Enabled reports whether the observer is live. Instrumented code must
// guard any attribute construction (string building, variadic attrs)
// behind this so the disabled path stays allocation-free.
func (o *Observer) Enabled() bool { return o != nil }

// now is the span clock: wall time at the observer's creation advanced
// by the monotonic clock.
func (o *Observer) now() time.Time { return o.epoch.Add(time.Since(o.epoch)) }

func (o *Observer) emit(sp Span) {
	if o.sink != nil {
		o.sink.Emit(sp)
	}
}

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

// BeginInvocation opens the root span of one invocation's trace. The
// invocation id comes from the caller (the runtime's monotonic
// sequence, which also lands in the public Report), so traces, logs,
// and metrics correlate. The zero Scope of a nil observer is inert.
func (o *Observer) BeginInvocation(inv uint64, kernel string) Scope {
	if o == nil {
		return Scope{}
	}
	return Scope{
		obs:    o,
		inv:    inv,
		root:   o.spanIDs.Add(1),
		kernel: kernel,
		start:  o.now(),
	}
}

// InvocationStats is the per-invocation summary the scope owner feeds
// the metrics registry once, when the invocation completes.
type InvocationStats struct {
	// Kernel names the invoked kernel (flight-recorder context only).
	Kernel string
	// Tenant and Class are the invocation's admission attributes for
	// per-tenant attribution; an empty Tenant accounts as AnonTenant,
	// an empty Class as "interactive" (the zero admission class).
	Tenant, Class string
	// Category is the resolved workload class key ("" when the
	// invocation never resolved one — small-N, breaker-suppressed, and
	// GPU-busy runs decide nothing).
	Category string
	// CPUEnergyJ, GPUEnergyJ and DRAMEnergyJ split the invocation's
	// package energy by RAPL domain for tenant energy attribution.
	CPUEnergyJ, GPUEnergyJ, DRAMEnergyJ float64
	// Seconds is the invocation's wall-clock latency.
	Seconds float64
	// ProfileSeconds is the wall-clock profiling overhead (0 when the
	// invocation replayed a remembered α).
	ProfileSeconds float64
	// Alpha is the applied offload ratio.
	Alpha float64
	// Retries counts busy GPU dispatch/enqueue attempts.
	Retries int
	// Profiled is true when online profiling ran; ProfileSteps counts
	// its repetitions.
	Profiled     bool
	ProfileSteps int
	// Fallback is the fallback reason key ("" when the run went as
	// scheduled).
	Fallback string
	// MeterRejected counts robust-meter sample rejections.
	MeterRejected int
	// Quarantined / Sanitized flag profile-validation outcomes.
	Quarantined, Sanitized bool
	// BreakerState is the breaker position after the invocation
	// (0=closed, 1=open, 2=half-open); negative skips the gauge.
	BreakerState int
	// FastPath marks an invocation whose fresh table record skipped a
	// periodic re-profile.
	FastPath bool
}

// RecordInvocation folds one completed invocation into the registry.
// Exactly one layer calls it per invocation: whoever opened the scope.
func (o *Observer) RecordInvocation(st InvocationStats) {
	if o == nil {
		return
	}
	o.invocations.Inc()
	o.latency.Observe(st.Seconds)
	o.alphaDist.Observe(st.Alpha)
	if st.Retries > 0 {
		o.retries.Add(uint64(st.Retries))
	}
	if st.Profiled {
		o.profiled.Inc()
		o.profileSteps.Add(uint64(st.ProfileSteps))
		o.profileLat.Observe(st.ProfileSeconds)
	}
	if st.Fallback != "" {
		o.fallbacks.With1(st.Fallback).Inc()
	}
	if st.MeterRejected > 0 {
		o.meterRejected.Add(uint64(st.MeterRejected))
	}
	if st.Quarantined {
		o.quarantined.Inc()
	}
	if st.Sanitized {
		o.sanitized.Inc()
	}
	if st.BreakerState >= 0 {
		o.breakerState.Set(float64(st.BreakerState))
	}
	if st.FastPath {
		o.fastPath.Inc()
	}

	// Per-tenant attribution. Tenant ids are user-supplied; the families
	// intern them behind a hard cardinality cap, so the hot path here is
	// an RLock and a map probe per family, allocation-free.
	tenant := st.Tenant
	if tenant == "" {
		tenant = AnonTenant
	}
	class := st.Class
	if class == "" {
		class = "interactive"
	}
	o.tenantInv.With2(tenant, class).Inc()
	o.tenantLatency.With1(tenant).Observe(st.Seconds)
	if st.FastPath {
		o.tenantFastPath.With1(tenant).Inc()
	}
	if st.CPUEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "cpu").Add(st.CPUEnergyJ)
	}
	if st.GPUEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "gpu").Add(st.GPUEnergyJ)
	}
	if st.DRAMEnergyJ > 0 {
		o.tenantEnergy.With2(tenant, "dram").Add(st.DRAMEnergyJ)
	}
	if st.Category != "" {
		o.catDecisions.With1(st.Category).Inc()
	}
	if o.flight != nil {
		o.flight.RecordDecision(st.Kernel, tenant, st.Category,
			st.Alpha, st.Seconds, st.FastPath)
		if st.Fallback != "" {
			o.flight.RecordDegradation(st.Kernel, tenant, st.Fallback)
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
// admission gate: the stall counter increments and a degradation
// instant (Name "watchdog-stall", Kernel = the wedged tenant) lands in
// the trace so overload incidents are visible on the Perfetto
// timeline, not only in counters.
func (o *Observer) RecordWatchdogStall(tenant string, held time.Duration) {
	if o == nil {
		return
	}
	o.watchdogStall.Inc()
	now := o.now()
	o.emit(Span{
		ID:     o.spanIDs.Add(1),
		Kind:   KindInstant,
		Name:   "watchdog-stall",
		Kernel: tenant,
		Start:  now,
		End:    now,
		Attrs:  AttrsOf(Str("tenant", tenant), Num("held_ms", float64(held.Milliseconds()))),
	})
	o.flight.RecordWatchdogStall(tenant, held)
}

// RecordBreakerTransition notes one circuit-breaker state change
// (states encoded 0=closed, 1=open, 2=half-open).
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

// Scope is one invocation's trace context: the root span plus the ids
// child spans hang off. It is a small value; the zero Scope (from a
// nil observer) makes every method a no-op.
type Scope struct {
	obs    *Observer
	inv    uint64
	root   uint64
	kernel string
	start  time.Time
}

// Enabled reports whether the scope is live. Call sites must guard
// attribute construction behind it (see Observer.Enabled).
func (sc Scope) Enabled() bool { return sc.obs != nil }

// InvocationID returns the invocation id the scope was opened with.
func (sc Scope) InvocationID() uint64 { return sc.inv }

// Elapsed is the wall-clock time since the scope opened (0 for an
// inert scope).
func (sc Scope) Elapsed() time.Duration {
	if sc.obs == nil {
		return 0
	}
	return time.Since(sc.start)
}

// End closes and emits the root invocation span.
func (sc Scope) End(attrs ...Attr) {
	if sc.obs == nil {
		return
	}
	sc.obs.emit(Span{
		ID:         sc.root,
		Invocation: sc.inv,
		Name:       "invocation",
		Kernel:     sc.kernel,
		Start:      sc.start,
		End:        sc.obs.now(),
		Attrs:      AttrsOf(attrs...),
	})
}

// Span opens a child span under the invocation root.
func (sc Scope) Span(name string) Timed {
	if sc.obs == nil {
		return Timed{}
	}
	return Timed{
		obs:    sc.obs,
		inv:    sc.inv,
		parent: sc.root,
		id:     sc.obs.spanIDs.Add(1),
		kernel: sc.kernel,
		name:   name,
		start:  sc.obs.now(),
	}
}

// Event emits an instant marker under the invocation root.
func (sc Scope) Event(name string, attrs ...Attr) {
	if sc.obs == nil {
		return
	}
	now := sc.obs.now()
	sc.obs.emit(Span{
		ID:         sc.obs.spanIDs.Add(1),
		Parent:     sc.root,
		Invocation: sc.inv,
		Kind:       KindInstant,
		Name:       name,
		Kernel:     sc.kernel,
		Start:      now,
		End:        now,
		Attrs:      AttrsOf(attrs...),
	})
}

// Timed is an open child span. The zero Timed is inert.
type Timed struct {
	obs    *Observer
	inv    uint64
	parent uint64
	id     uint64
	kernel string
	name   string
	start  time.Time
}

// Enabled reports whether the span is live.
func (t Timed) Enabled() bool { return t.obs != nil }

// End closes and emits the span.
func (t Timed) End(attrs ...Attr) { t.end(nil, attrs) }

// EndExplain closes the span carrying a decision-audit record.
func (t Timed) EndExplain(ex *Explain, attrs ...Attr) { t.end(ex, attrs) }

func (t Timed) end(ex *Explain, attrs []Attr) {
	if t.obs == nil {
		return
	}
	t.obs.emit(Span{
		ID:         t.id,
		Parent:     t.parent,
		Invocation: t.inv,
		Name:       t.name,
		Kernel:     t.kernel,
		Start:      t.start,
		End:        t.obs.now(),
		Attrs:      AttrsOf(attrs...),
		Explain:    ex,
	})
}

// Child opens a nested span under this one.
func (t Timed) Child(name string) Timed {
	if t.obs == nil {
		return Timed{}
	}
	return Timed{
		obs:    t.obs,
		inv:    t.inv,
		parent: t.id,
		id:     t.obs.spanIDs.Add(1),
		kernel: t.kernel,
		name:   name,
		start:  t.obs.now(),
	}
}

// Event emits an instant marker under this span.
func (t Timed) Event(name string, attrs ...Attr) {
	if t.obs == nil {
		return
	}
	now := t.obs.now()
	t.obs.emit(Span{
		ID:         t.obs.spanIDs.Add(1),
		Parent:     t.id,
		Invocation: t.inv,
		Kind:       KindInstant,
		Name:       name,
		Kernel:     t.kernel,
		Start:      now,
		End:        now,
		Attrs:      AttrsOf(attrs...),
	})
}

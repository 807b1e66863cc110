package eas

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/obs"
)

// Observer collects end-to-end observability data from every runtime
// it is attached to (via Config.Observer): one record per invocation
// kept in a bounded in-memory ring — phase timings, the decision audit
// of every α search, rare-path outcomes — and a registry of runtime
// metrics. One Observer may be shared by any number of Runtimes —
// invocation ids stay unique across all of them, so a multi-tenant
// process renders as one coherent timeline.
//
// Everything here is optional and near-free when absent: a Runtime
// whose Config.Observer is nil runs the exact historical code path and
// allocates nothing extra.
type Observer struct {
	inner *obs.Observer
	pprof bool
}

// ObserverOptions tunes a new Observer. The zero value is a good
// default.
type ObserverOptions struct {
	// RingCapacity bounds the ring of records (default 1536: the last
	// ~1500 invocations, with the watchdog stalls, breaker transitions
	// and WAL errors between them); older records are overwritten. It
	// also bounds what a flight-recorder dump holds.
	RingCapacity int
	// Flight arms the black-box flight recorder: anomaly triggers that
	// freeze the ring of records into JSON incident dumps of the
	// decisions, degradations, sheds, breaker transitions, watchdog
	// stalls and WAL errors it holds. The zero value keeps the recorder
	// off.
	Flight FlightPolicy
	// EnablePprof mounts Go's net/http/pprof profiling endpoints under
	// /debug/pprof/ on Handler and Serve. Off by default — the profile
	// endpoints expose process internals and cost CPU while sampled, so
	// they are strictly opt-in.
	EnablePprof bool
}

// FlightPolicy configures the flight recorder (see ObserverOptions.
// Flight). Any non-zero field arms the recorder; zero sub-fields pick
// defaults. The watchdog-stall and breaker-open triggers are always
// armed once recording; the rate triggers need their thresholds set.
type FlightPolicy struct {
	// Enable arms the recorder even with every other field zero.
	Enable bool
	// Dir receives incident dump files named
	// incident-<n>-<trigger>.json ("" keeps dumps in memory only,
	// served at /debug/flight).
	Dir string
	// Debounce is the minimum spacing between dumps — an anomaly storm
	// inside the window produces one dump, with the rest counted in the
	// artifact's "suppressed" field (default 30s).
	Debounce time.Duration
	// ShedSpike triggers a dump when this many admission sheds land
	// inside ShedWindow (default window 1s). 0 disables the trigger.
	ShedSpike int
	// ShedWindow is the shed-spike sliding window (default 1s).
	ShedWindow time.Duration
	// P99Latency triggers a dump when the sliding-window p99 of
	// invocation latencies exceeds it. 0 disables the trigger.
	P99Latency time.Duration
	// LatencyWindow is how many recent invocations the p99 estimate
	// spans (default 256).
	LatencyWindow int
}

// enabled reports whether any field arms the recorder.
func (p FlightPolicy) enabled() bool {
	return p != FlightPolicy{}
}

func (p FlightPolicy) internal() obs.FlightPolicy {
	return obs.FlightPolicy{
		Dir:           p.Dir,
		Debounce:      p.Debounce,
		ShedSpike:     p.ShedSpike,
		ShedWindow:    p.ShedWindow,
		P99Latency:    p.P99Latency,
		LatencyWindow: p.LatencyWindow,
	}
}

// NewObserver builds an observer with a bounded record ring and a fresh
// metrics registry.
func NewObserver(opts ObserverOptions) *Observer {
	o := &Observer{inner: obs.New(obs.NewRingSink(opts.RingCapacity), nil), pprof: opts.EnablePprof}
	if opts.Flight.enabled() {
		o.inner.AttachFlight(opts.Flight.internal())
	}
	return o
}

// internal returns the wrapped observer (nil for a nil Observer), the
// form Config plumbing hands to the scheduler core.
func (o *Observer) internal() *obs.Observer {
	if o == nil {
		return nil
	}
	return o.inner
}

// WriteChromeTrace renders the ring's current records as Chrome
// trace-event JSON, loadable directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Each invocation is
// one track holding a slice per phase; the alpha-search slice's args
// carry the full decision
// audit (measured throughputs, workload category, fitted curve, and
// the objective at every α grid point, rebuilt from the recorded
// search inputs at export time).
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return errors.New("eas: nil observer")
	}
	return obs.WriteChromeTrace(w, o.inner.Ring().Snapshot())
}

// WriteMetrics writes the metrics registry in Prometheus text
// exposition format (version 0.0.4).
func (o *Observer) WriteMetrics(w io.Writer) error {
	if o == nil {
		return errors.New("eas: nil observer")
	}
	return o.inner.Registry().WritePrometheus(w)
}

// Handler returns an http.Handler serving /metrics (Prometheus text),
// /debug/trace (Chrome trace JSON of the current ring snapshot),
// /debug/tenants (per-tenant accounting JSON), /debug/flight (the
// flight recorder's latest incident, when one is armed), and — with
// ObserverOptions.EnablePprof — Go's /debug/pprof/ endpoints.
func (o *Observer) Handler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return obs.NewHTTPHandler(o.inner, o.pprof)
}

// FlightDumps reports how many incident dumps the flight recorder has
// produced (0 when the recorder is not armed).
func (o *Observer) FlightDumps() uint64 {
	if o == nil {
		return 0
	}
	return o.inner.Flight().Dumps()
}

// Serve starts an HTTP server for Handler on addr (e.g.
// "localhost:9190"; a ":0" port picks a free one — read the bound
// address back from ObserverServer.Addr). The server runs until
// Close.
func (o *Observer) Serve(addr string) (*ObserverServer, error) {
	if o == nil {
		return nil, errors.New("eas: nil observer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("eas: observer listen: %w", err)
	}
	srv := &http.Server{Handler: o.Handler()}
	s := &ObserverServer{addr: ln.Addr().String(), srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// ObserverServer is a running metrics/trace HTTP endpoint.
type ObserverServer struct {
	addr      string
	srv       *http.Server
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound listen address (host:port) — the way to learn
// the actual port after Serve(":0").
func (s *ObserverServer) Addr() string { return s.addr }

// Close shuts the endpoint down. Idempotent.
func (s *ObserverServer) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}

// registerRuntimeCollectors wires a runtime's always-on component
// counters (work-stealing pool, GPU command queues, admission gate) into
// the observer's registry as pull-style metrics: a collector snapshots
// the component stats at scrape time and folds the delta since the
// previous scrape into shared counters and gauges, so several runtimes
// on one observer sum cleanly. The returned function folds the final
// counter deltas, takes the runtime's share out of the gauges and
// unregisters the collector, so a closed runtime keeps counting toward
// the totals without staying reachable from the observer.
func (o *Observer) registerRuntimeCollectors(r *Runtime) (remove func()) {
	if o == nil {
		return func() {}
	}
	reg := o.inner.Registry()
	steals := reg.Counter("eas_ws_steals_total",
		"Work-stealing chunks executed by a worker other than their owner.")
	parks := reg.Counter("eas_ws_parks_total",
		"Idle episodes in which a pool worker parked on the semaphore.")
	wakes := reg.Counter("eas_ws_wakes_total",
		"Wakeups delivered to parked pool workers.")
	enqueues := reg.Counter("eas_cl_enqueues_total",
		"Functional GPU NDRange enqueues attempted.")
	busy := reg.Counter("eas_cl_enqueue_busy_total",
		"Functional GPU enqueues transiently rejected as device-busy.")
	// Capture the components, not r: the runtime keeps the returned
	// remove function, and a path from it back to r would form a cycle
	// through the runtime that keeps a finalizer on it from running.
	pool, clctx := r.pool, r.ctx
	lastPool := pool.Stats()
	lastQ := clctx.Stats()
	admission, retire := admissionCollector(reg, r.sched.Admission())
	unregister := reg.RegisterCollector(func() {
		p := pool.Stats()
		steals.Add(p.Steals - lastPool.Steals)
		parks.Add(p.Parks - lastPool.Parks)
		wakes.Add(p.Wakes - lastPool.Wakes)
		lastPool = p
		q := clctx.Stats()
		enqueues.Add(q.Enqueues - lastQ.Enqueues)
		busy.Add(q.Busy - lastQ.Busy)
		lastQ = q
		admission()
	})
	return func() {
		unregister()
		retire()
	}
}

// admissionCollector exposes admission-gate pressure on /metrics:
// total queued waiters, per-class queue depths, per-class admission
// counters, shed counters by reason, aging promotions, and
// late-release counts. Every class and reason series exists from
// registration, so zero-valued series still appear. (Watchdog stalls
// are push-style — see RecordWatchdogStall — because each one also
// lands in the ring as a stall record.) The gauges, like the counters,
// move by this gate's change since the previous scrape, so the gates
// of several runtimes sum; retire takes this gate's last reading back
// out once its collector is gone.
func admissionCollector(reg *obs.Registry, adm *core.Admission) (collect, retire func()) {
	waiters := reg.Gauge("eas_admission_waiters",
		"Invocations currently queued at the admission gate.")
	depthVec := reg.GaugeVec("eas_admission_queue_depth",
		"Invocations queued at the admission gate, by priority class.", []string{"class"}, 0)
	admittedVec := reg.CounterVec("eas_admission_admitted_total",
		"Invocations admitted through the admission gate, by priority class.", []string{"class"}, 0)
	var depth [core.NumClasses]*obs.Gauge
	var admitted [core.NumClasses]*obs.Counter
	for c := core.Class(0); c < core.NumClasses; c++ {
		depth[c] = depthVec.With1(c.String())
		admitted[c] = admittedVec.With1(c.String())
	}
	shed := reg.CounterVec("eas_admission_shed_total",
		"Invocations shed at the admission gate, by reason.", []string{"reason"}, 0)
	shedQuota := shed.With1("tenant-quota")
	shedQueue := shed.With1("queue-full")
	shedDeadline := shed.With1("deadline")
	aging := reg.Counter("eas_admission_aging_promotions_total",
		"Grants in which aging let a lower-priority waiter overtake a queued higher class.")
	late := reg.Counter("eas_admission_late_releases_total",
		"Releases arriving after the watchdog had already revoked the holder's ticket.")
	var last core.AdmissionStats
	var lastWaiters int
	collect = func() {
		w := adm.Waiters()
		waiters.Add(float64(w - lastWaiters))
		lastWaiters = w
		st := adm.Stats()
		for c := 0; c < core.NumClasses; c++ {
			depth[c].Add(float64(st.QueueDepth[c] - last.QueueDepth[c]))
			admitted[c].Add(st.Admitted[c] - last.Admitted[c])
		}
		shedQuota.Add(st.ShedQuota - last.ShedQuota)
		shedQueue.Add(st.ShedQueueFull - last.ShedQueueFull)
		shedDeadline.Add(st.ShedDeadline - last.ShedDeadline)
		aging.Add(st.AgingPromotions - last.AgingPromotions)
		late.Add(st.LateReleases - last.LateReleases)
		last = st
	}
	retire = func() {
		waiters.Add(-float64(lastWaiters))
		for c := 0; c < core.NumClasses; c++ {
			depth[c].Add(-float64(last.QueueDepth[c]))
		}
	}
	return collect, retire
}

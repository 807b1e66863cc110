package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/statestore"
)

// The flight recorder is the scheduler's aircraft-style black box: an
// always-on, fixed-size ring of compact event records — decision
// summaries, sheds, breaker transitions, watchdog stalls, WAL errors,
// degradation instants — that costs nothing to keep and is only read
// when something goes wrong. Trigger conditions (a watchdog stall, the
// breaker opening, a shed-rate spike, a sliding-window p99 latency
// breach) freeze the ring into a JSON incident artifact: the last N
// events before the anomaly, dumped to a configured directory and held
// in memory for the /debug/flight endpoint. A debounce window
// collapses an anomaly storm into one dump.

// FlightEventKind classifies one flight-recorder event.
type FlightEventKind uint8

const (
	// FlightDecision is one completed invocation's decision summary.
	FlightDecision FlightEventKind = iota
	// FlightShed is one admission-gate load-shedding rejection.
	FlightShed
	// FlightBreaker is one circuit-breaker state transition.
	FlightBreaker
	// FlightWatchdogStall is one watchdog force-release of the gate.
	FlightWatchdogStall
	// FlightWALError is one durable-state write failure.
	FlightWALError
	// FlightDegradation is a fallback deviation from the planned split.
	FlightDegradation
)

var flightKindNames = [...]string{
	FlightDecision:      "decision",
	FlightShed:          "shed",
	FlightBreaker:       "breaker",
	FlightWatchdogStall: "watchdog-stall",
	FlightWALError:      "wal-error",
	FlightDegradation:   "degradation",
}

// String returns the kind's JSON/log label.
func (k FlightEventKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// FlightEvent is one compact ring record. Strings are retained by
// reference (kernel names, tenant ids, and reason constants are
// long-lived in the runtime), so recording allocates nothing.
type FlightEvent struct {
	Seq      uint64
	UnixNano int64
	Kind     FlightEventKind
	// Kernel and Tenant identify the actor ("" when not applicable).
	Kernel string
	Tenant string
	// Detail carries the kind-specific label: the workload category for
	// decisions, the shed reason, the breaker state name, the fallback
	// reason for degradations.
	Detail string
	// Alpha is the applied offload ratio (decisions only).
	Alpha float64
	// Value is the kind's scalar payload: latency seconds for
	// decisions, held milliseconds for watchdog stalls.
	Value float64
	// FastPath mirrors the decision flag.
	FastPath bool
}

// flightEventJSON is the incident-artifact shape of one event.
type flightEventJSON struct {
	Seq      uint64  `json:"seq"`
	Time     string  `json:"time"`
	Kind     string  `json:"kind"`
	Kernel   string  `json:"kernel,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Value    float64 `json:"value,omitempty"`
	FastPath bool    `json:"fast_path,omitempty"`
}

// FlightDump is the JSON incident artifact: the trigger that froze the
// ring plus the events leading up to it, oldest first.
type FlightDump struct {
	// Trigger names the condition that froze the ring ("watchdog-stall",
	// "breaker-open", "shed-spike", "p99-breach", or "manual" for
	// on-demand snapshots).
	Trigger string `json:"trigger"`
	// Reason is the trigger's human-readable detail line.
	Reason string `json:"reason"`
	// Time is the trigger instant (RFC3339Nano).
	Time string `json:"time"`
	// Dump numbers this recorder's dumps from 1; Suppressed counts
	// triggers the debounce window swallowed since the previous dump.
	Dump       uint64 `json:"dump"`
	Suppressed uint64 `json:"suppressed"`
	// Events is the frozen ring, oldest first.
	Events []flightEventJSON `json:"events"`
}

// Flight triggers, as they appear in the dump artifact and the
// eas_flight_dumps_total{trigger} label.
const (
	TriggerWatchdogStall = "watchdog-stall"
	TriggerBreakerOpen   = "breaker-open"
	TriggerShedSpike     = "shed-spike"
	TriggerP99Breach     = "p99-breach"
	TriggerManual        = "manual"
)

// FlightPolicy tunes a flight recorder. The zero value of every field
// picks a sensible default; the watchdog-stall and breaker-open
// triggers are always armed, the rate triggers (ShedSpike, P99Latency)
// only when their threshold is set.
type FlightPolicy struct {
	// Events bounds the ring (default 4096 events).
	Events int
	// Dir receives incident dump files ("" keeps dumps in memory only,
	// still served at /debug/flight).
	Dir string
	// Debounce is the minimum spacing between dumps; triggers inside
	// the window are counted, not dumped (default 30s).
	Debounce time.Duration
	// ShedSpike arms the shed-rate trigger: this many sheds inside
	// ShedWindow freeze the ring. 0 disables.
	ShedSpike int
	// ShedWindow is the shed-rate trigger's sliding window (default 1s).
	ShedWindow time.Duration
	// P99Latency arms the latency trigger: when the sliding-window p99
	// of recorded decision latencies exceeds it, the ring freezes. 0
	// disables.
	P99Latency time.Duration
	// LatencyWindow is how many recent decisions the p99 estimate spans
	// (default 256).
	LatencyWindow int
}

func (p FlightPolicy) withDefaults() FlightPolicy {
	if p.Events <= 0 {
		p.Events = 4096
	}
	if p.Debounce <= 0 {
		p.Debounce = 30 * time.Second
	}
	if p.ShedWindow <= 0 {
		p.ShedWindow = time.Second
	}
	if p.LatencyWindow <= 0 {
		p.LatencyWindow = 256
	}
	// The trigger windows are preallocated rings; clamp them so a huge
	// threshold cannot turn into a proportional allocation.
	if p.ShedSpike > 1<<16 {
		p.ShedSpike = 1 << 16
	}
	if p.LatencyWindow > 1<<16 {
		p.LatencyWindow = 1 << 16
	}
	return p
}

// FlightRecorder is the black-box ring plus its trigger state. One
// short mutex guards everything; Record is a lock, a slot copy, and an
// unlock — no allocation (the ring and all trigger windows are sized
// at construction).
type FlightRecorder struct {
	policy FlightPolicy
	reg    *Registry
	dumps  *CounterVec

	// now is injectable for deterministic tests.
	now func() time.Time

	mu   sync.Mutex
	ring []FlightEvent
	seq  uint64 // events recorded; ring[(seq-1)%len] is newest

	// Shed-rate trigger: a ring of recent shed instants.
	shedTimes []time.Time
	shedNext  int

	// p99 trigger: a ring of recent decision latencies plus a scratch
	// buffer reused by the periodic estimate (no alloc on the hot path).
	lat        []float64
	latNext    int
	latFull    bool
	latScratch []float64

	// Dump/debounce state.
	lastDump   time.Time
	dumpSeq    uint64
	dumped     uint64 // dumps committed: file renamed into place (or in memory only when Dir is "")
	suppressed uint64
	lastJSON   []byte // latest incident artifact, for /debug/flight
	dumpErr    error  // last file-write failure (surfaced, never fatal)
}

// NewFlightRecorder builds a recorder; reg (may be nil) receives the
// eas_flight_dumps_total{trigger} accounting family.
func NewFlightRecorder(p FlightPolicy, reg *Registry) *FlightRecorder {
	p = p.withDefaults()
	f := &FlightRecorder{
		policy: p,
		reg:    reg,
		now:    time.Now,
		ring:   make([]FlightEvent, p.Events),
	}
	if p.ShedSpike > 1 {
		// The ring holds the ShedSpike-1 most recent shed instants: when
		// a new shed overwrites a slot, the evicted instant was exactly
		// ShedSpike-1 sheds back, so "evicted instant inside the window"
		// means the window saw >= ShedSpike sheds.
		f.shedTimes = make([]time.Time, p.ShedSpike-1)
	}
	if p.P99Latency > 0 {
		f.lat = make([]float64, p.LatencyWindow)
		f.latScratch = make([]float64, p.LatencyWindow)
	}
	if reg != nil {
		f.dumps = reg.CounterVec("eas_flight_dumps_total",
			"Flight-recorder incident dumps, by trigger condition.",
			[]string{"trigger"}, 8)
	}
	return f
}

// Record appends one event to the ring. Safe for concurrent use;
// allocation-free (the ≤1-alloc-per-event budget is spent nowhere on
// this path — see BenchmarkFlightRecord).
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	ev.Seq = f.seq + 1
	if ev.UnixNano == 0 {
		ev.UnixNano = f.now().UnixNano()
	}
	f.ring[f.seq%uint64(len(f.ring))] = ev
	f.seq++
	f.mu.Unlock()
}

// RecordDecision appends a decision summary and feeds the p99 latency
// trigger.
func (f *FlightRecorder) RecordDecision(kernel, tenant, category string, alpha, seconds float64, fastPath bool) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{
		Kind: FlightDecision, Kernel: kernel, Tenant: tenant, Detail: category,
		Alpha: alpha, Value: seconds, FastPath: fastPath,
	})
	f.observeLatency(seconds)
}

// RecordShed appends a load-shedding event and feeds the shed-rate
// trigger.
func (f *FlightRecorder) RecordShed(tenant, class, reason string) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: FlightShed, Tenant: tenant, Kernel: class, Detail: reason})
	f.observeShed()
}

// RecordBreaker appends a breaker transition; an opening breaker
// (state 1) is a trigger.
func (f *FlightRecorder) RecordBreaker(state int, name string) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: FlightBreaker, Detail: name, Value: float64(state)})
	if state == 1 {
		f.Trigger(TriggerBreakerOpen, "GPU circuit breaker opened")
	}
}

// RecordWatchdogStall appends a stall event and triggers a dump: a
// force-released gate is the incident the recorder exists for.
func (f *FlightRecorder) RecordWatchdogStall(tenant string, held time.Duration) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: FlightWatchdogStall, Tenant: tenant,
		Value: float64(held.Milliseconds())})
	f.Trigger(TriggerWatchdogStall, "admission watchdog force-released the gate")
}

// RecordWALError appends a durable-state write failure (event only —
// persistence failures degrade gracefully and have their own counter).
func (f *FlightRecorder) RecordWALError() {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: FlightWALError})
}

// RecordDegradation appends a fallback instant (the invocation
// deviated from its planned split).
func (f *FlightRecorder) RecordDegradation(kernel, tenant, reason string) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: FlightDegradation, Kernel: kernel, Tenant: tenant, Detail: reason})
}

// observeShed slides the shed window and fires the spike trigger when
// ShedSpike sheds landed inside ShedWindow.
func (f *FlightRecorder) observeShed() {
	if f.policy.ShedSpike <= 0 {
		return
	}
	if f.policy.ShedSpike == 1 {
		f.Trigger(TriggerShedSpike, "shed-spike threshold 1: any shed triggers")
		return
	}
	f.mu.Lock()
	now := f.now()
	oldest := f.shedTimes[f.shedNext]
	f.shedTimes[f.shedNext] = now
	f.shedNext = (f.shedNext + 1) % len(f.shedTimes)
	// The evicted instant was ShedSpike-1 sheds back; if it happened
	// inside the window, this shed is the ShedSpike-th within it.
	fire := !oldest.IsZero() && now.Sub(oldest) <= f.policy.ShedWindow
	f.mu.Unlock()
	if fire {
		f.Trigger(TriggerShedSpike,
			fmt.Sprintf("%d sheds inside %v", f.policy.ShedSpike, f.policy.ShedWindow))
	}
}

// observeLatency slides the latency window and periodically re-checks
// the p99 estimate against the policy bound. The estimate sorts a
// preallocated scratch copy, so the hot path never allocates; the sort
// runs at most once per quarter-window of decisions.
func (f *FlightRecorder) observeLatency(seconds float64) {
	if f.policy.P99Latency <= 0 {
		return
	}
	bound := f.policy.P99Latency.Seconds()
	f.mu.Lock()
	f.lat[f.latNext] = seconds
	f.latNext++
	if f.latNext == len(f.lat) {
		f.latNext = 0
		f.latFull = true
	}
	check := f.latFull && f.latNext%(len(f.lat)/4+1) == 0
	var p99 float64
	if check {
		copy(f.latScratch, f.lat)
		sort.Float64s(f.latScratch)
		p99 = f.latScratch[len(f.latScratch)*99/100]
	}
	f.mu.Unlock()
	if check && p99 > bound {
		f.Trigger(TriggerP99Breach,
			fmt.Sprintf("sliding-window p99 %.3fs exceeds bound %v", p99, f.policy.P99Latency))
	}
}

// Trigger freezes the ring into an incident dump unless the debounce
// window since the last dump is still open (then it only counts the
// suppression). The artifact file is written atomically — temp file,
// fsync, rename — and the dump is counted (Dumps,
// eas_flight_dumps_total) only once that rename has landed, so a
// counted dump's file always exists in full. It returns whether a dump
// was committed.
func (f *FlightRecorder) Trigger(trigger, reason string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	now := f.now()
	if !f.lastDump.IsZero() && now.Sub(f.lastDump) < f.policy.Debounce {
		f.suppressed++
		f.mu.Unlock()
		return false
	}
	f.lastDump = now
	f.dumpSeq++
	dump := f.buildDumpLocked(trigger, reason, now)
	f.suppressed = 0
	seq := f.dumpSeq
	f.mu.Unlock()

	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		// A marshal failure leaves the previous artifact in place.
		return false
	}
	data = append(data, '\n')
	f.mu.Lock()
	f.lastJSON = data
	f.mu.Unlock()
	if f.policy.Dir != "" {
		name := fmt.Sprintf("incident-%06d-%s.json", seq, trigger)
		err = os.MkdirAll(f.policy.Dir, 0o755)
		if err == nil {
			err = statestore.WriteFileAtomic(filepath.Join(f.policy.Dir, name), data)
		}
		if err != nil {
			f.mu.Lock()
			f.dumpErr = err
			f.mu.Unlock()
			return false
		}
	}
	f.mu.Lock()
	f.dumped++
	f.mu.Unlock()
	if f.dumps != nil {
		f.dumps.With1(trigger).Inc()
	}
	return true
}

// buildDumpLocked assembles the incident artifact from the frozen
// ring. Caller holds f.mu.
func (f *FlightRecorder) buildDumpLocked(trigger, reason string, now time.Time) FlightDump {
	n := f.seq
	cap64 := uint64(len(f.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	events := make([]flightEventJSON, 0, n-start)
	for i := start; i < n; i++ {
		ev := f.ring[i%cap64]
		events = append(events, flightEventJSON{
			Seq:      ev.Seq,
			Time:     time.Unix(0, ev.UnixNano).UTC().Format(time.RFC3339Nano),
			Kind:     ev.Kind.String(),
			Kernel:   ev.Kernel,
			Tenant:   ev.Tenant,
			Detail:   ev.Detail,
			Alpha:    ev.Alpha,
			Value:    ev.Value,
			FastPath: ev.FastPath,
		})
	}
	return FlightDump{
		Trigger:    trigger,
		Reason:     reason,
		Time:       now.UTC().Format(time.RFC3339Nano),
		Dump:       f.dumpSeq,
		Suppressed: f.suppressed,
		Events:     events,
	}
}

// LastDump returns the most recent incident artifact's JSON (nil when
// no trigger has fired yet).
func (f *FlightRecorder) LastDump() []byte {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastJSON == nil {
		return nil
	}
	out := make([]byte, len(f.lastJSON))
	copy(out, f.lastJSON)
	return out
}

// Snapshot renders the current ring as an untriggered ("manual")
// incident artifact — the live view /debug/flight serves when no
// anomaly has fired yet.
func (f *FlightRecorder) Snapshot() ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("obs: nil flight recorder")
	}
	f.mu.Lock()
	dump := f.buildDumpLocked(TriggerManual, "on-demand ring snapshot", f.now())
	f.mu.Unlock()
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DumpError returns the last incident-file write failure (nil when
// every dump landed).
func (f *FlightRecorder) DumpError() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpErr
}

// Dumps returns how many incident dumps the recorder has committed.
func (f *FlightRecorder) Dumps() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumped
}

// setNow injects a deterministic clock (tests only).
func (f *FlightRecorder) setNow(now func() time.Time) { f.now = now }

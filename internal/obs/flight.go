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

// The flight recorder is the scheduler's aircraft-style black box. It
// keeps no history of its own: the observer's ring of records already
// holds the last N invocations and the runtime events beside them
// (watchdog stalls, breaker transitions, WAL errors). Trigger
// conditions (a watchdog stall, the breaker opening, a shed-rate spike,
// a sliding-window p99 latency breach) freeze that ring into a JSON
// incident artifact, dumped to a configured directory and held in
// memory for the /debug/flight endpoint. A debounce window collapses
// an anomaly storm into one dump.
//
// A dump expands each retained record into events, oldest first:
//
//   - a completed invocation gives a "decision" event (kernel, tenant,
//     category, α, latency in seconds, fast path), followed by a
//     "degradation" event naming its fallback reason if it fell back;
//   - a shed invocation gives a "shed" event (its class as the kernel,
//     the shed reason as the detail);
//   - any other failed invocation gives nothing;
//   - a stall, breaker or WAL-error record gives one event of its kind
//     ("watchdog-stall" with the held milliseconds, "breaker" with the
//     new state).
//
// An invocation event names an untenanted invocation's tenant "anon".
// An invocation's events are stamped at its end (Start+Wall), a
// runtime event at its Start. An event's seq is its record's lifetime
// put number in the ring, so the events of one record share it and
// consecutive dumps from one observer line up.

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
// only when their threshold is set. The dump depth is the observer's
// ring capacity.
type FlightPolicy struct {
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
	// of completed invocation latencies exceeds it, the ring freezes. 0
	// disables.
	P99Latency time.Duration
	// LatencyWindow is how many recent invocations the p99 estimate
	// spans (default 256).
	LatencyWindow int
}

func (p FlightPolicy) withDefaults() FlightPolicy {
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

// FlightRecorder is the trigger state over an observer's ring: the
// shed-rate and p99 windows, the debounce and the dump writer. One
// short mutex guards it; the trigger windows are sized at
// construction, so feeding them allocates nothing. The recorder never
// holds its mutex while it reads the ring.
type FlightRecorder struct {
	policy FlightPolicy
	ring   *RingSink
	dumps  *CounterVec

	// now is injectable for deterministic tests.
	now func() time.Time

	mu sync.Mutex

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

// newFlightRecorder builds a recorder dumping ring; reg (may be nil)
// receives the eas_flight_dumps_total{trigger} accounting family.
func newFlightRecorder(p FlightPolicy, ring *RingSink, reg *Registry) *FlightRecorder {
	p = p.withDefaults()
	f := &FlightRecorder{
		policy: p,
		ring:   ring,
		now:    time.Now,
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

// observeShed slides the shed window and fires the spike trigger when
// ShedSpike sheds landed inside ShedWindow.
func (f *FlightRecorder) observeShed() {
	if f == nil || f.policy.ShedSpike <= 0 {
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
	if f == nil || f.policy.P99Latency <= 0 {
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
	dump := FlightDump{Trigger: trigger, Reason: reason, Dump: f.dumpSeq, Suppressed: f.suppressed}
	f.suppressed = 0
	f.mu.Unlock()

	data, err := f.render(dump, now)
	if err != nil {
		// A marshal failure leaves the previous artifact in place.
		return false
	}
	f.mu.Lock()
	f.lastJSON = data
	f.mu.Unlock()
	if f.policy.Dir != "" {
		name := fmt.Sprintf("incident-%06d-%s.json", dump.Dump, trigger)
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

// render fills the artifact's time and events and encodes it. The
// events are the ring's retained records, expanded by the dump rules at
// the top of this file. The caller must not hold f.mu: the ring takes
// its own lock.
func (f *FlightRecorder) render(dump FlightDump, now time.Time) ([]byte, error) {
	recs, first := f.ring.snapshot()
	dump.Time = stamp(now)
	dump.Events = make([]flightEventJSON, 0, len(recs))
	for i := range recs {
		dump.Events = recs[i].appendFlightEvents(dump.Events, first+uint64(i))
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// appendFlightEvents expands one record into its incident-dump events;
// seq is the record's put number in the ring.
func (r *Invocation) appendFlightEvents(events []flightEventJSON, seq uint64) []flightEventJSON {
	ev := flightEventJSON{Seq: seq, Time: stamp(r.Start), Kind: r.Kind.String()}
	if r.Kind != KindInvocation {
		switch r.Kind {
		case KindWatchdogStall:
			ev.Tenant = r.Tenant
			ev.Value = float64(r.Hold.Milliseconds())
		case KindBreaker:
			ev.Detail = breakerStateName(r.Breaker)
			ev.Value = float64(r.Breaker)
		}
		return append(events, ev)
	}
	if r.Err != "" && r.Shed == "" {
		return events
	}
	ev.Time = stamp(r.Start.Add(r.Wall))
	ev.Tenant = r.Tenant
	if ev.Tenant == "" {
		ev.Tenant = AnonTenant
	}
	if r.Shed != "" {
		ev.Kind, ev.Kernel, ev.Detail = "shed", r.Class, r.Shed
		return append(events, ev)
	}
	ev.Kind, ev.Kernel, ev.Detail = "decision", r.Kernel, r.Category
	ev.Alpha, ev.Value, ev.FastPath = r.Alpha, r.Wall.Seconds(), r.FastPath
	events = append(events, ev)
	if r.Fallback != "" {
		events = append(events, flightEventJSON{Seq: seq, Time: ev.Time, Kind: "degradation",
			Kernel: r.Kernel, Tenant: ev.Tenant, Detail: r.Fallback})
	}
	return events
}

func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

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
	dump := FlightDump{Trigger: TriggerManual, Reason: "on-demand ring snapshot", Dump: f.dumpSeq, Suppressed: f.suppressed}
	now := f.now()
	f.mu.Unlock()
	return f.render(dump, now)
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

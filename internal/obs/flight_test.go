package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// flightClock is a deterministic, manually advanced clock for trigger
// and debounce tests.
type flightClock struct{ t time.Time }

func newFlightClock() *flightClock {
	return &flightClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}
func (c *flightClock) now() time.Time          { return c.t }
func (c *flightClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// armedObserver returns an observer with a ring of capacity records
// and a flight recorder armed with p on the clock's time.
func armedObserver(capacity int, p FlightPolicy, clock *flightClock) (*Observer, *FlightRecorder) {
	o := New(NewRingSink(capacity), NewRegistry())
	f := o.AttachFlight(p)
	if clock != nil {
		f.setNow(clock.now)
	}
	return o, f
}

func decodeDump(t *testing.T, data []byte) FlightDump {
	t.Helper()
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("%v in:\n%s", err, data)
	}
	return dump
}

// A dump holds what the ring holds: the newest RingCapacity records,
// each numbered by its put.
func TestFlightRingWraps(t *testing.T) {
	o, f := armedObserver(4, FlightPolicy{}, nil)
	for i := 0; i < 7; i++ {
		o.Finish(&Invocation{Kernel: "k", Start: time.Now()})
	}
	data, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeDump(t, data)
	if len(dump.Events) != 4 {
		t.Fatalf("snapshot has %d events, want 4 (ring size)", len(dump.Events))
	}
	// Oldest first, only the newest 4 retained.
	for i, ev := range dump.Events {
		if want := uint64(4 + i); ev.Seq != want || ev.Kind != "decision" {
			t.Errorf("event %d = %s #%d, want decision #%d", i, ev.Kind, ev.Seq, want)
		}
	}
}

func TestFlightTriggerDebounce(t *testing.T) {
	clock := newFlightClock()
	_, f := armedObserver(8, FlightPolicy{Debounce: 10 * time.Second}, clock)

	if !f.Trigger(TriggerWatchdogStall, "first") {
		t.Fatal("first trigger suppressed")
	}
	// A storm inside the debounce window produces no further dumps.
	for i := 0; i < 5; i++ {
		clock.advance(time.Second)
		if f.Trigger(TriggerShedSpike, "storm") {
			t.Fatalf("trigger %d inside debounce window dumped", i)
		}
	}
	if got := f.Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d, want 1", got)
	}
	// Past the window the next trigger dumps, carrying the suppression
	// count.
	clock.advance(10 * time.Second)
	if !f.Trigger(TriggerBreakerOpen, "after window") {
		t.Fatal("post-window trigger suppressed")
	}
	dump := decodeDump(t, f.LastDump())
	if dump.Trigger != TriggerBreakerOpen || dump.Dump != 2 || dump.Suppressed != 5 {
		t.Fatalf("dump = %s/#%d/suppressed=%d, want breaker-open/#2/suppressed=5",
			dump.Trigger, dump.Dump, dump.Suppressed)
	}
}

func TestFlightWatchdogStallDumpsToDir(t *testing.T) {
	dir := t.TempDir()
	o, f := armedObserver(8, FlightPolicy{Dir: dir}, newFlightClock())
	o.RecordWatchdogStall("tenant-a", 250*time.Millisecond)
	if err := f.DumpError(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("incident files = %v (err %v), want exactly one", names, err)
	}
	if want := "incident-000001-watchdog-stall.json"; filepath.Base(names[0]) != want {
		t.Fatalf("incident file %q, want %q", names[0], want)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeDump(t, data)
	if len(dump.Events) != 1 || dump.Events[0].Kind != "watchdog-stall" ||
		dump.Events[0].Tenant != "tenant-a" || dump.Events[0].Value != 250 {
		t.Fatalf("dump events = %+v, want the one stall record", dump.Events)
	}
}

// A dump counts only once its artifact is committed: a write that
// fails leaves the counter and the dumps family untouched and surfaces
// the error, and the directory never holds a partial file.
func TestFlightDumpCountedOnlyAfterCommit(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o, f := armedObserver(8, FlightPolicy{Dir: notDir}, nil)
	reg := o.Registry()
	if f.Trigger(TriggerManual, "unwritable dir") {
		t.Error("Trigger reported a committed dump for a failed write")
	}
	if f.Dumps() != 0 || f.DumpError() == nil {
		t.Errorf("Dumps() = %d, DumpError() = %v; want 0 and the write error", f.Dumps(), f.DumpError())
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `eas_flight_dumps_total{trigger="manual"}`) {
		t.Errorf("failed dump counted on /metrics:\n%s", buf.String())
	}
}

// shedRecord is a finished record of an invocation the gate shed.
func shedRecord(tenant, reason string) *Invocation {
	return &Invocation{Tenant: tenant, Class: "interactive", Start: time.Now(),
		Err: "overloaded", Shed: reason}
}

func TestFlightShedSpikeTrigger(t *testing.T) {
	clock := newFlightClock()
	o, f := armedObserver(16, FlightPolicy{ShedSpike: 3, ShedWindow: time.Second}, clock)
	// Two sheds inside the window: below threshold.
	o.Finish(shedRecord("a", "queue-full"))
	clock.advance(100 * time.Millisecond)
	o.Finish(shedRecord("a", "queue-full"))
	if f.Dumps() != 0 {
		t.Fatal("spike fired below threshold")
	}
	clock.advance(100 * time.Millisecond)
	o.Finish(shedRecord("a", "queue-full"))
	if f.Dumps() != 1 {
		t.Fatalf("Dumps() = %d after 3 sheds in 200ms, want 1", f.Dumps())
	}
	dump := decodeDump(t, f.LastDump())
	if dump.Trigger != TriggerShedSpike {
		t.Fatalf("trigger = %q, want shed-spike", dump.Trigger)
	}
	if len(dump.Events) != 3 {
		t.Fatalf("dump holds %d events, want the 3 sheds", len(dump.Events))
	}
	for _, ev := range dump.Events {
		if ev.Kind != "shed" || ev.Kernel != "interactive" || ev.Tenant != "a" || ev.Detail != "queue-full" {
			t.Errorf("event %+v, want a queue-full shed of tenant a (class as kernel)", ev)
		}
	}
}

func TestFlightP99Trigger(t *testing.T) {
	o, f := armedObserver(16, FlightPolicy{P99Latency: 100 * time.Millisecond, LatencyWindow: 8}, newFlightClock())
	for i := 0; i < 64 && f.Dumps() == 0; i++ {
		// A record started 500ms ago finishes 500ms long: ≫ the bound.
		o.Finish(&Invocation{Kernel: "k", Tenant: "a", Alpha: 0.5, Start: time.Now().Add(-500 * time.Millisecond)})
	}
	if f.Dumps() != 1 {
		t.Fatalf("p99 trigger never fired; Dumps() = %d", f.Dumps())
	}
	// Failed invocations carry no latency sample.
	o2, f2 := armedObserver(16, FlightPolicy{P99Latency: 100 * time.Millisecond, LatencyWindow: 8}, newFlightClock())
	for i := 0; i < 64; i++ {
		o2.Finish(&Invocation{Kernel: "k", Err: "failed", Start: time.Now().Add(-500 * time.Millisecond)})
	}
	if f2.Dumps() != 0 {
		t.Fatalf("failed invocations fed the p99 window: Dumps() = %d", f2.Dumps())
	}
}

func TestFlightBreakerOpenTrigger(t *testing.T) {
	o, f := armedObserver(8, FlightPolicy{}, nil)
	o.RecordBreakerTransition(0)
	if f.Dumps() != 0 {
		t.Fatal("closed transition triggered a dump")
	}
	o.RecordBreakerTransition(1)
	if f.Dumps() != 1 {
		t.Fatalf("open transition: Dumps() = %d, want 1", f.Dumps())
	}
	dump := decodeDump(t, f.LastDump())
	if dump.Trigger != TriggerBreakerOpen || len(dump.Events) != 2 ||
		dump.Events[0].Detail != "closed" || dump.Events[1].Detail != "open" || dump.Events[1].Value != 1 {
		t.Fatalf("dump = %s %+v, want breaker-open over the closed and open transitions", dump.Trigger, dump.Events)
	}
}

func TestFlightDumpsCounterFamily(t *testing.T) {
	o, _ := armedObserver(8, FlightPolicy{}, nil)
	o.RecordWatchdogStall("a", time.Millisecond)
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `eas_flight_dumps_total{trigger="watchdog-stall"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, b.String())
	}
}

// TestFlightDumpGolden pins the incident artifact's JSON shape — the
// contract consumed by incident tooling — against a checked-in file.
// The records cover every event kind and the expansion rules: a
// completed invocation, one that fell back (decision, then
// degradation, sharing its seq), a shed, a failed invocation (no
// event), a breaker transition, a WAL error and a watchdog stall.
func TestFlightDumpGolden(t *testing.T) {
	clock := newFlightClock()
	o, f := armedObserver(8, FlightPolicy{}, clock)
	at := func(ms int) time.Time { return clock.t.Add(time.Duration(ms) * time.Millisecond) }
	for _, r := range []Invocation{
		{ID: 1, Kernel: "saxpy", Tenant: "tenant-a", Category: "com-cpuS-gpuS", Alpha: 0.6,
			FastPath: true, Start: at(0), Wall: 12500 * time.Microsecond},
		{ID: 2, Kernel: "saxpy", Category: "com-cpuS-gpuS", Alpha: 0.3, Fallback: "gpu-busy",
			Start: at(20), Wall: 30 * time.Millisecond},
		{ID: 3, Kernel: "saxpy", Tenant: "tenant-b", Class: "batch", Err: "overloaded",
			Shed: "tenant-quota", Start: at(60), Wall: 10 * time.Microsecond},
		{ID: 4, Kernel: "saxpy", Tenant: "tenant-b", Err: "context canceled", Start: at(70), Wall: time.Millisecond},
		{Kind: KindBreaker, Breaker: 2, Start: at(100)},
		{Kind: KindWALError, Start: at(150)},
		{Kind: KindWatchdogStall, Tenant: "tenant-b", Hold: 250 * time.Millisecond, Start: at(250)},
	} {
		o.Ring().Put(&r)
	}
	clock.advance(250 * time.Millisecond)
	if !f.Trigger(TriggerWatchdogStall, "admission watchdog force-released the gate") {
		t.Fatal("no dump after watchdog stall")
	}
	got := f.LastDump()
	golden := filepath.Join("testdata", "flight_dump.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("incident dump deviates from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// armedFinish returns an observer whose recorder arms both rate
// triggers (neither fires) and a completed and a shed record to finish
// on it.
func armedFinish() (*Observer, *Invocation, *Invocation) {
	o, _ := armedObserver(DefaultRingCapacity, FlightPolicy{ShedSpike: 1 << 10, P99Latency: time.Hour}, nil)
	done := &Invocation{Kernel: "kernel", Tenant: "tenant", Class: "batch", Category: "com-cpuS-gpuS",
		Alpha: 0.5, FastPath: true, Start: time.Now()}
	shed := &Invocation{Kernel: "kernel", Tenant: "tenant", Class: "batch", Err: "overloaded",
		Shed: "queue-full", Start: time.Now()}
	return o, done, shed
}

// BenchmarkFinishFlightArmed prices one completed invocation's Finish
// with the flight recorder armed: the ring write, the metrics fold and
// the p99 window. It must stay within the flight_allocs_per_event
// budget (it is in fact 0-alloc: the ring pages and the trigger
// windows are allocated before the loop).
func BenchmarkFinishFlightArmed(b *testing.B) {
	o, done, _ := armedFinish()
	for i := 0; i < DefaultRingCapacity; i++ {
		o.Finish(done) // fill the ring's pages
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Finish(done)
	}
}

func TestFlightRecordAllocBudget(t *testing.T) {
	o, done, shed := armedFinish()
	for i := 0; i < DefaultRingCapacity; i++ {
		o.Finish(done)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		o.Finish(done)
		o.Finish(shed)
	})
	if allocs > 2 { // two records finished per run: ≤1 alloc per record
		t.Fatalf("armed Finish allocates %.1f/run for 2 records, budget 2", allocs)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.observeShed()
	f.observeLatency(1)
	if f.Trigger(TriggerManual, "x") {
		t.Fatal("nil recorder dumped")
	}
	if f.LastDump() != nil || f.Dumps() != 0 || f.DumpError() != nil {
		t.Fatal("nil recorder has state")
	}
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("nil recorder snapshot succeeded")
	}
	var o *Observer
	if o.AttachFlight(FlightPolicy{}) != nil || o.Flight() != nil || o.Ring() != nil {
		t.Fatal("nil observer has a recorder or a ring")
	}
	// An observer without a recorder still finishes sheds and stalls.
	o = New(nil, nil)
	o.Finish(shedRecord("a", "queue-full"))
	o.RecordWatchdogStall("a", time.Millisecond)
	o.RecordBreakerTransition(1)
	o.RecordStateError()
	if got := o.Ring().Total(); got != 4 {
		t.Fatalf("ring holds %d records, want 4", got)
	}
}

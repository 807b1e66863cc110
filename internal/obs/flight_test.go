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

func TestFlightRingWraps(t *testing.T) {
	f := NewFlightRecorder(FlightPolicy{Events: 4}, nil)
	for i := 0; i < 7; i++ {
		f.Record(FlightEvent{Kind: FlightDecision, Kernel: "k"})
	}
	data, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 4 {
		t.Fatalf("snapshot has %d events, want 4 (ring size)", len(dump.Events))
	}
	// Oldest first, only the newest 4 retained.
	for i, ev := range dump.Events {
		if want := uint64(4 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightTriggerDebounce(t *testing.T) {
	clock := newFlightClock()
	f := NewFlightRecorder(FlightPolicy{Events: 8, Debounce: 10 * time.Second}, nil)
	f.setNow(clock.now)

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
	var dump FlightDump
	if err := json.Unmarshal(f.LastDump(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != TriggerBreakerOpen || dump.Dump != 2 || dump.Suppressed != 5 {
		t.Fatalf("dump = %s/#%d/suppressed=%d, want breaker-open/#2/suppressed=5",
			dump.Trigger, dump.Dump, dump.Suppressed)
	}
}

func TestFlightWatchdogStallDumpsToDir(t *testing.T) {
	dir := t.TempDir()
	clock := newFlightClock()
	f := NewFlightRecorder(FlightPolicy{Events: 8, Dir: dir}, nil)
	f.setNow(clock.now)
	f.RecordWatchdogStall("tenant-a", 250*time.Millisecond)
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
}

// A dump counts only once its artifact is committed: a write that
// fails leaves the counter and the dumps family untouched and surfaces
// the error, and the directory never holds a partial file.
func TestFlightDumpCountedOnlyAfterCommit(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	f := NewFlightRecorder(FlightPolicy{Events: 8, Dir: notDir}, reg)
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

func TestFlightShedSpikeTrigger(t *testing.T) {
	clock := newFlightClock()
	f := NewFlightRecorder(FlightPolicy{Events: 16, ShedSpike: 3, ShedWindow: time.Second}, nil)
	f.setNow(clock.now)
	// Two sheds inside the window: below threshold.
	f.RecordShed("a", "interactive", "queue-full")
	clock.advance(100 * time.Millisecond)
	f.RecordShed("a", "interactive", "queue-full")
	if f.Dumps() != 0 {
		t.Fatal("spike fired below threshold")
	}
	clock.advance(100 * time.Millisecond)
	f.RecordShed("a", "interactive", "queue-full")
	if f.Dumps() != 1 {
		t.Fatalf("Dumps() = %d after 3 sheds in 200ms, want 1", f.Dumps())
	}
	var dump FlightDump
	if err := json.Unmarshal(f.LastDump(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != TriggerShedSpike {
		t.Fatalf("trigger = %q, want shed-spike", dump.Trigger)
	}
}

func TestFlightP99Trigger(t *testing.T) {
	clock := newFlightClock()
	f := NewFlightRecorder(FlightPolicy{
		Events: 16, P99Latency: 100 * time.Millisecond, LatencyWindow: 8,
	}, nil)
	f.setNow(clock.now)
	for i := 0; i < 64 && f.Dumps() == 0; i++ {
		f.RecordDecision("k", "a", "", 0.5, 0.5, false) // 500ms ≫ bound
	}
	if f.Dumps() != 1 {
		t.Fatalf("p99 trigger never fired; Dumps() = %d", f.Dumps())
	}
}

func TestFlightBreakerOpenTrigger(t *testing.T) {
	f := NewFlightRecorder(FlightPolicy{Events: 8}, nil)
	f.RecordBreaker(0, "closed")
	if f.Dumps() != 0 {
		t.Fatal("closed transition triggered a dump")
	}
	f.RecordBreaker(1, "open")
	if f.Dumps() != 1 {
		t.Fatalf("open transition: Dumps() = %d, want 1", f.Dumps())
	}
}

func TestFlightDumpsCounterFamily(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightPolicy{Events: 8}, reg)
	f.RecordWatchdogStall("a", time.Millisecond)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `eas_flight_dumps_total{trigger="watchdog-stall"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, b.String())
	}
}

// TestFlightDumpGolden pins the incident artifact's JSON shape — the
// contract consumed by incident tooling — against a checked-in file.
func TestFlightDumpGolden(t *testing.T) {
	clock := newFlightClock()
	f := NewFlightRecorder(FlightPolicy{Events: 8}, nil)
	f.setNow(clock.now)

	f.RecordDecision("saxpy", "tenant-a", "com-cpuS-gpuS", 0.6, 0.0125, true)
	clock.advance(50 * time.Millisecond)
	f.RecordShed("tenant-b", "batch", "tenant-quota")
	clock.advance(50 * time.Millisecond)
	f.RecordBreaker(2, "half-open")
	clock.advance(50 * time.Millisecond)
	f.RecordDegradation("saxpy", "tenant-a", "gpu-busy")
	clock.advance(50 * time.Millisecond)
	f.RecordWALError()
	clock.advance(50 * time.Millisecond)
	f.RecordWatchdogStall("tenant-b", 250*time.Millisecond)

	got := f.LastDump()
	if got == nil {
		t.Fatal("no dump after watchdog stall")
	}
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

// BenchmarkFlightRecord pins the per-event cost of the armed recorder:
// the hot path must stay within the 1-alloc budget (it is in fact
// 0-alloc — the ring and trigger windows are preallocated).
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(FlightPolicy{
		Events: 4096, ShedSpike: 1 << 10, P99Latency: time.Hour,
	}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RecordDecision("kernel", "tenant", "com-cpuS-gpuS", 0.5, 0.001, true)
	}
}

func TestFlightRecordAllocBudget(t *testing.T) {
	f := NewFlightRecorder(FlightPolicy{
		Events: 4096, ShedSpike: 1 << 10, P99Latency: time.Hour,
	}, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		f.RecordDecision("kernel", "tenant", "com-cpuS-gpuS", 0.5, 0.001, true)
		f.RecordShed("tenant", "batch", "queue-full")
	})
	if allocs > 2 { // two events recorded per run: ≤1 alloc per event
		t.Fatalf("recorder hot path allocates %.1f/run for 2 events, budget 2", allocs)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{})
	f.RecordDecision("", "", "", 0, 0, false)
	f.RecordShed("", "", "")
	f.RecordBreaker(1, "open")
	f.RecordWatchdogStall("", 0)
	f.RecordWALError()
	f.RecordDegradation("", "", "")
	if f.Trigger(TriggerManual, "x") {
		t.Fatal("nil recorder dumped")
	}
	if f.LastDump() != nil || f.Dumps() != 0 || f.DumpError() != nil {
		t.Fatal("nil recorder has state")
	}
}

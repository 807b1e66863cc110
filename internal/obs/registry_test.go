package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryRaceStress hammers one counter, one gauge, and one
// histogram from 16 goroutines and checks the books balance: every
// add is accounted for, the histogram's bucket counts sum to its
// observation count, and its sum matches the known total. Run with
// -race this also proves the instruments' lock-free paths are clean.
func TestRegistryRaceStress(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	reg := NewRegistry()
	c := reg.Counter("stress_total", "stress counter")
	g := reg.Gauge("stress_gauge", "stress gauge")
	h := reg.Histogram("stress_seconds", "stress histogram",
		[]float64{0.25, 0.5, 0.75})

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(2)
				g.Add(1)
				h.Observe(float64(i%4) / 4.0) // 0, .25, .5, .75
			}
		}(w)
	}
	wg.Wait()

	if got, want := c.Value(), uint64(goroutines*perG*2); got != want {
		t.Errorf("counter: got %d, want %d", got, want)
	}
	if got, want := g.Value(), float64(goroutines*perG); got != want {
		t.Errorf("gauge: got %g, want %g", got, want)
	}
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Errorf("histogram count: got %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, n := range h.BucketCounts() {
		bucketSum += n
	}
	if bucketSum != h.Count() {
		t.Errorf("histogram buckets do not book-balance: sum %d, count %d", bucketSum, h.Count())
	}
	// Each goroutine observes perG/4 of each value 0, .25, .5, .75.
	wantSum := float64(goroutines) * float64(perG/4) * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("histogram sum: got %g, want %g", h.Sum(), wantSum)
	}
	// Values land in exact buckets: 0 and .25 in le=0.25, .5 in le=0.5,
	// .75 in le=0.75, nothing in +Inf.
	counts := h.BucketCounts()
	wantPer := uint64(goroutines * perG / 4)
	for i, want := range []uint64{2 * wantPer, wantPer, wantPer, 0} {
		if counts[i] != want {
			t.Errorf("bucket %d: got %d, want %d", i, counts[i], want)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("eas_invocations_total", "Invocations.").Add(7)
	reg.Gauge("eas_breaker_state", "Breaker.").Set(2)
	h := reg.Histogram("eas_alpha", "Alpha.", []float64{0.5, 1})
	h.Observe(0.3)
	h.Observe(0.7)
	h.Observe(0.7)
	// Two children of one labelled family: HELP/TYPE once.
	fb := reg.CounterVec("eas_fallbacks_total", "Fallbacks.", []string{"reason"}, 0)
	fb.With1("gpu-busy").Inc()
	fb.With1("gpu-timeout").Add(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE eas_invocations_total counter\neas_invocations_total 7\n",
		"# TYPE eas_breaker_state gauge\neas_breaker_state 2\n",
		"# TYPE eas_alpha histogram\n",
		`eas_alpha_bucket{le="0.5"} 1`,
		`eas_alpha_bucket{le="1"} 3`,
		`eas_alpha_bucket{le="+Inf"} 3`,
		"eas_alpha_sum 1.7",
		"eas_alpha_count 3",
		`eas_fallbacks_total{reason="gpu-busy"} 1`,
		`eas_fallbacks_total{reason="gpu-timeout"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE eas_fallbacks_total counter"); n != 1 {
		t.Errorf("family header for labeled counters emitted %d times, want 1:\n%s", n, out)
	}
}

func TestRegistryReregistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("re-registering a counter must return the existing instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name as a different kind must panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestRegistryCollectors(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pull_total", "pulled")
	reg.RegisterCollector(func() { c.Add(5) })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pull_total 5") {
		t.Errorf("collector did not run before exposition:\n%s", b.String())
	}
	// Removing runs the collector a final time, then never again.
	remove := reg.RegisterCollector(func() { c.Add(1) })
	remove()
	remove()
	if got := c.Value(); got != 6 {
		t.Errorf("after remove: pull_total = %d, want 6 (one final collection)", got)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != 11 {
		t.Errorf("after scrape: pull_total = %d, want 11 (removed collector ran again)", got)
	}
}

// TestConcurrentScrapesFoldEachDeltaOnce runs a delta-folding collector
// — the shape of the runtime's pull collectors — under concurrent
// scrapes. Run with -race: the collector's snapshot is unsynchronized,
// so the registry must never run it twice at once.
func TestConcurrentScrapesFoldEachDeltaOnce(t *testing.T) {
	reg := NewRegistry()
	folded := reg.Counter("folded_total", "Deltas folded.")
	var source atomic.Uint64
	var last uint64
	reg.RegisterCollector(func() {
		cur := source.Load()
		folded.Add(cur - last)
		last = cur
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				source.Add(1)
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, want := folded.Value(), source.Load(); got != want {
		t.Errorf("folded %d deltas, source advanced %d", got, want)
	}
}

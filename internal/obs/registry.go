package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Registry holds the process's runtime metrics: counters, gauges, and
// fixed-bucket histograms. Registration (by name) takes a lock once;
// the returned instruments are lock-free atomics, so instrumented hot
// paths never touch the registry again. A metric name is a bare
// family name; labelled families are CounterVec, GaugeVec and friends
// (labels.go).
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []string

	// collectMu serializes collector runs: a collector folds the delta
	// since its own last snapshot, so two scrapes running it at once
	// would race on that snapshot and could fold one delta twice.
	collectMu  sync.Mutex
	collectors []*collector
}

// collector boxes a registered collector so its remove function can
// find it by identity.
type collector struct{ f func() }

type metric interface {
	help() string
	// write emits the metric's sample lines (no HELP/TYPE headers).
	write(w io.Writer, name string) error
	kind() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[name]; ok {
		if existing.kind() != m.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, m.kind(), existing.kind()))
		}
		return existing
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, name)
	return m
}

// Counter registers (or returns the existing) monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{helpText: help}).(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{helpText: help}).(*Gauge)
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are ascending upper bounds; an implicit +Inf bucket is added.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{
		helpText: help,
		bounds:   append([]float64(nil), bounds...),
		buckets:  make([]padUint64, len(bounds)+1),
	}
	return r.register(name, h).(*Histogram)
}

// RegisterCollector adds a function run at the start of every
// WritePrometheus call, before samples are read — the hook by which
// pull-style stats (work-stealing pool counters, driver queue stats,
// breaker position) are folded into registry instruments. Collectors
// run one at a time under the registry's collector lock, so f must not
// call RegisterCollector, a remove function or WritePrometheus.
//
// The returned function runs f one last time, so the deltas since the
// previous scrape still reach the registry, and then removes it; later
// calls do nothing. Call it when the component f reads goes away, or
// the registry keeps that component reachable.
func (r *Registry) RegisterCollector(f func()) (remove func()) {
	if f == nil {
		return func() {}
	}
	c := &collector{f}
	r.collectMu.Lock()
	r.collectors = append(r.collectors, c)
	r.collectMu.Unlock()
	return func() {
		r.collectMu.Lock()
		defer r.collectMu.Unlock()
		if i := slices.Index(r.collectors, c); i >= 0 {
			c.f()
			r.collectors = slices.Delete(r.collectors, i, i+1)
		}
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), families sorted by name, each with its
// HELP/TYPE header. Collectors run first so pull-style stats are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collectMu.Lock()
	for _, c := range r.collectors {
		c.f()
	}
	r.collectMu.Unlock()

	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	metrics := make(map[string]metric, len(names))
	for _, n := range names {
		metrics[n] = r.byName[n]
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		m := metrics[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, m.help(), name, m.kind()); err != nil {
			return err
		}
		if err := m.write(w, name); err != nil {
			return err
		}
	}
	return nil
}

// counterShards stripes a counter's adds across cache lines so heavily
// concurrent writers do not serialize on one contended word.
const counterShards = 8

type padUint64 struct {
	n atomic.Uint64
	_ [56]byte
}

// shardHint derives a cheap, goroutine-biased shard index from the
// address of a stack local: distinct goroutines run on distinct stacks,
// so concurrent writers usually land on different shards. The pointer
// never escapes and is only used as an integer source.
func shardHint() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 9 & (counterShards - 1))
}

// Counter is a monotonically increasing, striped atomic counter.
type Counter struct {
	helpText string
	shards   [counterShards]padUint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	c.shards[shardHint()].n.Add(n)
}

// Value returns the counter's current total.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

func (c *Counter) help() string { return c.helpText }
func (c *Counter) kind() string { return "counter" }
func (c *Counter) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}

// Gauge is an atomically set float value.
type Gauge struct {
	helpText string
	bits     atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta (CAS loop; gauges are low-rate).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) help() string { return g.helpText }
func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
	return err
}

// Histogram is a fixed-bucket histogram: per-bucket atomic counts plus
// an atomic count/sum pair. Observe is lock-free.
type Histogram struct {
	helpText string
	bounds   []float64 // ascending upper bounds; +Inf implicit
	buckets  []padUint64
	count    atomic.Uint64
	sumBits  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].n.Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts, the
// final entry being the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].n.Load()
	}
	return out
}

func (h *Histogram) help() string { return h.helpText }
func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) write(w io.Writer, name string) error {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].n.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].n.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

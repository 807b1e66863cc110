package obs

import "sync"

// DefaultRingCapacity is the ring sink's span capacity when the caller
// does not choose one: enough for a few thousand invocations' span
// trees without unbounded growth.
const DefaultRingCapacity = 8192

// ringPage is how many spans a RingSink allocates at a time, so a sink
// costs memory in proportion to the spans it has held, not to its
// capacity: a span is a few hundred bytes, and most sinks are built at
// set-up long before they fill.
const ringPage = 256

// RingSink retains the most recent spans in a fixed-capacity ring for
// post-mortem dumps: when something goes wrong, the last N spans are a
// flight recorder of what the scheduler decided and why. It is safe
// for concurrent use.
type RingSink struct {
	mu       sync.Mutex
	pages    [][]Span // ring slot i is pages[i/ringPage][i%ringPage]
	capacity int
	next     int
	wrapped  bool
	total    uint64
}

// NewRingSink returns a ring retaining up to capacity spans
// (DefaultRingCapacity when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{
		pages:    make([][]Span, (capacity+ringPage-1)/ringPage),
		capacity: capacity,
	}
}

// Emit implements Sink.
func (r *RingSink) Emit(sp Span) {
	r.mu.Lock()
	page := r.pages[r.next/ringPage]
	if page == nil {
		// The ring fills in order, so a page is first written at its
		// first slot.
		page = make([]Span, min(ringPage, r.capacity-r.next))
		r.pages[r.next/ringPage] = page
	}
	page[r.next%ringPage] = sp
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.wrapped = true
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of spans currently retained.
func (r *RingSink) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return r.capacity
	}
	return r.next
}

// Total returns the lifetime number of spans emitted (retained or
// evicted).
func (r *RingSink) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained spans out in emission order
// (oldest first). Explain records are shared, not copied: they are
// immutable once emitted.
func (r *RingSink) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, first := r.next, 0
	if r.wrapped {
		n, first = r.capacity, r.next
	}
	if n == 0 {
		return nil
	}
	out := make([]Span, n)
	for k := range out {
		i := (first + k) % r.capacity
		out[k] = r.pages[i/ringPage][i%ringPage]
	}
	return out
}

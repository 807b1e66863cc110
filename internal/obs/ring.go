package obs

import "sync"

// DefaultRingCapacity is the ring's record capacity when the caller
// does not choose one: the last ~1500 invocations, bounded.
const DefaultRingCapacity = 1536

// ringPage is how many records a RingSink allocates at a time, so a
// ring costs memory in proportion to the records it has held, not to
// its capacity: a record is a few hundred bytes, and most rings are
// built at set-up long before they fill.
const ringPage = 256

// RingSink retains the most recent records in a fixed-capacity ring:
// the last N invocations and the runtime events between them. The
// trace export and the flight recorder's incident dumps both read it.
// It is safe for concurrent use.
type RingSink struct {
	mu       sync.Mutex
	pages    [][]Invocation // ring slot i is pages[i/ringPage][i%ringPage]
	capacity int
	next     int
	wrapped  bool
	total    uint64
}

// NewRingSink returns a ring retaining up to capacity records
// (DefaultRingCapacity when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{
		pages:    make([][]Invocation, (capacity+ringPage-1)/ringPage),
		capacity: capacity,
	}
}

// Put copies one record into the ring, evicting the oldest when full.
func (r *RingSink) Put(rec *Invocation) {
	r.mu.Lock()
	page := r.pages[r.next/ringPage]
	if page == nil {
		// The ring fills in order, so a page is first written at its
		// first slot.
		page = make([]Invocation, min(ringPage, r.capacity-r.next))
		r.pages[r.next/ringPage] = page
	}
	page[r.next%ringPage] = *rec
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.wrapped = true
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of records currently retained.
func (r *RingSink) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return r.capacity
	}
	return r.next
}

// Total returns the lifetime number of records put (retained or
// evicted).
func (r *RingSink) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained records out in the order they were put
// (oldest first).
func (r *RingSink) Snapshot() []Invocation {
	recs, _ := r.snapshot()
	return recs
}

// snapshot is Snapshot that also returns the lifetime put number of
// the first record copied (records are numbered from 1).
func (r *RingSink) snapshot() ([]Invocation, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, first := r.next, 0
	if r.wrapped {
		n, first = r.capacity, r.next
	}
	if n == 0 {
		return nil, 0
	}
	out := make([]Invocation, n)
	for k := range out {
		i := (first + k) % r.capacity
		out[k] = r.pages[i/ringPage][i%ringPage]
	}
	return out, r.total - uint64(n) + 1
}

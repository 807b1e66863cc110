package obs

import "sync"

// DefaultRingCapacity is the ring sink's span capacity when the caller
// does not choose one: enough for a few thousand invocations' span
// trees without unbounded growth.
const DefaultRingCapacity = 8192

// RingSink retains the most recent spans in a fixed-capacity ring for
// post-mortem dumps: when something goes wrong, the last N spans are a
// flight recorder of what the scheduler decided and why. It is safe
// for concurrent use.
type RingSink struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
	total   uint64
}

// NewRingSink returns a ring retaining up to capacity spans
// (DefaultRingCapacity when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{buf: make([]Span, capacity)}
}

// Emit implements Sink.
func (r *RingSink) Emit(sp Span) {
	r.mu.Lock()
	r.buf[r.next] = sp
	r.next++
	if r.next == len(r.buf) {
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
		return len(r.buf)
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
	var out []Span
	if !r.wrapped {
		out = append([]Span(nil), r.buf[:r.next]...)
	} else {
		out = make([]Span, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	return out
}

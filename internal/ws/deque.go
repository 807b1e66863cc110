// Package ws implements the CPU-side work-stealing runtime the paper's
// scheduler executes parallel iterations with: a lock-free Chase-Lev
// deque per worker plus a pool that runs parallel_for bodies, with one
// designated slot for the GPU proxy thread's leftover work.
//
// The deque is the classic Chase-Lev algorithm (SPAA'05): the owner
// pushes and pops at the bottom without contention, thieves steal from
// the top with a CAS. Go's sync/atomic operations are sequentially
// consistent, which satisfies the algorithm's fencing requirements.
package ws

import "sync/atomic"

// Range is a half-open interval of loop iterations [Start, End).
type Range struct {
	Start, End int
}

// Len returns the number of iterations in the range.
func (r Range) Len() int { return r.End - r.Start }

// ring is a fixed-size circular buffer. Size is a power of two.
type ring struct {
	size int64
	mask int64
	buf  []slot
}

// slot holds one Range in atomics. A thief that loaded a stale top can
// read a slot while the owner rewrites it for a wrapped-around push;
// that torn value is discarded because the thief's CAS on top then
// fails, but the racing accesses must still be atomic under the Go
// memory model.
type slot struct{ start, end atomic.Int64 }

func newRing(size int64) *ring {
	return &ring{size: size, mask: size - 1, buf: make([]slot, size)}
}

func (r *ring) get(i int64) Range {
	s := &r.buf[i&r.mask]
	return Range{Start: int(s.start.Load()), End: int(s.end.Load())}
}

func (r *ring) put(i int64, v Range) {
	s := &r.buf[i&r.mask]
	s.start.Store(int64(v.Start))
	s.end.Store(int64(v.End))
}
func (r *ring) grow(b, t int64) *ring {
	nr := newRing(r.size * 2)
	for i := t; i < b; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// Deque is a Chase-Lev work-stealing deque of Ranges. The zero value is
// not usable; construct with NewDeque. PushBottom and PopBottom may be
// called only by the owning worker; Steal may be called by any thread.
type Deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	array  atomic.Pointer[ring]
}

// NewDeque returns an empty deque.
func NewDeque() *Deque {
	d := &Deque{}
	d.array.Store(newRing(64))
	return d
}

// reset empties the deque for a new loop, keeping its ring (or giving
// a zero Deque its first one). Only a deque no thread is using may be
// reset.
func (d *Deque) reset() {
	d.top.Store(0)
	d.bottom.Store(0)
	if d.array.Load() == nil {
		d.array.Store(newRing(64))
	}
}

// PushBottom adds v at the owner's end.
func (d *Deque) PushBottom(v Range) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t >= a.size-1 {
		a = a.grow(b, t)
		d.array.Store(a)
	}
	a.put(b, v)
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the most recently pushed range. The
// second result is false when the deque is empty.
func (d *Deque) PopBottom() (Range, bool) {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return Range{}, false
	}
	v := a.get(b)
	if t == b {
		// Last element: race with thieves via CAS on top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(b + 1)
		if !won {
			return Range{}, false
		}
		return v, true
	}
	return v, true
}

// Steal removes and returns the oldest range. The second result is
// false when the deque is empty or the steal lost a race.
func (d *Deque) Steal() (Range, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return Range{}, false
	}
	a := d.array.Load()
	v := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return Range{}, false
	}
	return v, true
}

// maxStealBatch caps how many chunks one StealHalf call transfers. The
// cap bounds the thief's time inside the steal loop (each chunk is its
// own CAS) and keeps a single steal from emptying a large victim into
// one thief, which would defeat the distribution the batch exists for.
const maxStealBatch = 16

// StealHalf claims up to half of the victim's queued chunks in one
// call: the first claimed chunk is returned for immediate execution and
// the remainder are pushed onto into, which MUST be the calling
// thief's own deque (PushBottom is owner-only). extra is the number of
// chunks transferred to into beyond the returned one.
//
// Chase-Lev has no safe multi-item claim: a single CAS moving top by k
// can race a concurrent PopBottom, which takes non-last items without
// any CAS, double-executing work. StealHalf therefore loops the
// single-item Steal CAS — each claim individually linearizable — and
// stops early the moment a claim fails, so it is exactly as correct as
// k sequential Steals while amortizing the victim-selection and
// wake-propagation overhead across the batch.
func (d *Deque) StealHalf(into *Deque) (first Range, extra int, ok bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	size := b - t
	if size <= 0 {
		return Range{}, 0, false
	}
	want := (size + 1) / 2
	if want > maxStealBatch {
		want = maxStealBatch
	}
	first, ok = d.Steal()
	if !ok {
		return Range{}, 0, false
	}
	for int64(extra)+1 < want {
		r, more := d.Steal()
		if !more {
			break
		}
		into.PushBottom(r)
		extra++
	}
	return first, extra, true
}

// Size returns a linearizable-enough estimate of the number of queued
// ranges (for monitoring; exactness is not guaranteed under races).
func (d *Deque) Size() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}

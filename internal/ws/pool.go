package ws

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the default chunk size for splitting iteration spaces.
const DefaultGrain = 256

// PanicError is a recovered panic from a kernel body running on the
// pool. The panicking worker converts it to an error, the remaining
// workers drain cleanly, and the loop returns it — a misbehaving
// kernel must not take down the scheduling runtime.
type PanicError struct {
	// Index is the iteration index whose body panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("ws: kernel body panicked at index %d: %v", e.Index, e.Value)
}

// Pool executes data-parallel loops over a fixed number of worker slots
// using work stealing. A Pool is safe for concurrent use: any number
// of loops may run on it at once (each loop has its own deques and
// workers; the pool-level parker is shared). Workers that run out of
// stealable work spin briefly and then park on the pool's semaphore,
// so idle workers — whether waiting out a long straggler chunk in
// their own loop or belonging to a quiet tenant in a busy process —
// cost ~zero CPU instead of burning a core in a Gosched loop. That is
// both a throughput fix (spinners steal cycles from workers with real
// work) and an energy-accounting one: an energy-aware runtime must not
// itself convert idleness into full-core activity.
//
// A loop's state (deques with their rings, counters, wake channels)
// comes from a pool-owned free list and goes back to it once the last
// worker that ran on it has exited, so a warmed loop allocates nothing.
// An uncancellable loop runs on the caller as worker 0 plus
// workers−1 helper goroutines.
type Pool struct {
	workers int
	idle    parker

	// stealsBy holds one cache-line-padded steal counter per worker
	// slot. Steals are the hottest counter — every successful claim from
	// a foreign deque bumps one — so sharing a single atomic across
	// workers would put every thief on the same cache line. Each worker
	// updates only its own padded slot and Stats sums them on demand.
	// (Concurrent loops on one pool share slots by worker index; that
	// cross-loop overlap is rare and still one writer per line at a
	// time in the common case.)
	stealsBy []paddedUint64

	// Observability counters (lifetime, monotonic). Parks and wakes sit
	// behind the parker's mutex anyway — an extra shared atomic add per
	// idle episode is noise, so they stay unsharded.
	parks atomic.Uint64 // times a worker blocked on the idle semaphore
	wakes atomic.Uint64 // wakeups delivered to parked workers

	// free holds the states of finished loops, as many as the peak
	// number of loops that ran at once.
	freeMu sync.Mutex
	free   []*loop
}

// paddedUint64 is an atomic counter padded out to a cache line so
// adjacent slots in a slice never false-share.
type paddedUint64 struct {
	n atomic.Uint64
	_ [56]byte
}

// PoolStats is a snapshot of the pool's lifetime activity counters.
type PoolStats struct {
	// Steals counts chunks claimed from another worker's deque,
	// including the extras a batched StealHalf transfers into the
	// thief's own deque (counted at transfer time, whichever worker
	// ultimately executes them).
	Steals uint64
	// Parks counts idle episodes that exhausted the spin budget and
	// blocked on the pool semaphore.
	Parks uint64
	// Wakes counts wakeups delivered to parked workers.
	Wakes uint64
}

// Stats returns a snapshot of the pool's activity counters. It is safe
// to call from any goroutine, including while loops are in flight.
func (p *Pool) Stats() PoolStats {
	var steals uint64
	for i := range p.stealsBy {
		steals += p.stealsBy[i].n.Load()
	}
	return PoolStats{
		Steals: steals,
		Parks:  p.parks.Load(),
		Wakes:  p.wakes.Load(),
	}
}

// NewPool returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n, stealsBy: make([]paddedUint64, n)}
}

// parker is the pool's idle-worker semaphore. A worker that finds no
// work registers its wake channel with prepare, rechecks its loop's
// state (mandatory — skipping the recheck loses wakeups), and then
// blocks on the channel; wakers send one token via wakeOne/wakeAll.
// Wake channels have capacity 1 and belong to a loop's worker slot, so
// parking allocates nothing: a token is sent only when a waker removes
// the channel's registration, and every registration ends with one
// receive, so the channel is empty whenever it is registered.
// The parker is shared by all loops running on the pool: a wakeup may
// reach a worker of a different loop, which simply rechecks its own
// state and re-parks, so cross-loop wakeups are harmless and every
// loop's own terminator always wakes its own parked workers.
type parker struct {
	mu      sync.Mutex
	waiters []chan struct{}
}

// prepare registers the empty wake channel ch. The caller must either
// receive from ch or call cancel on it.
func (p *parker) prepare(ch chan struct{}) {
	p.mu.Lock()
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
}

// cancel deregisters ch after the recheck found work. If a waker
// already removed the registration, its token is in ch (wakers send
// under mu) and is drained, so ch is empty for the next park.
func (p *parker) cancel(ch chan struct{}) {
	p.mu.Lock()
	found := false
	for i, c := range p.waiters {
		if c == ch {
			n := copy(p.waiters[i:], p.waiters[i+1:])
			p.waiters[i+n] = nil
			p.waiters = p.waiters[:i+n]
			found = true
			break
		}
	}
	p.mu.Unlock()
	if !found {
		<-ch
	}
}

// wakeOne unparks the longest-parked worker, reporting whether one was
// waiting.
func (p *parker) wakeOne() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.waiters) == 0 {
		return false
	}
	p.waiters[0] <- struct{}{}
	n := copy(p.waiters, p.waiters[1:])
	p.waiters[n] = nil
	p.waiters = p.waiters[:n]
	return true
}

// wakeAll unparks every parked worker, returning how many there were.
func (p *parker) wakeAll() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.waiters)
	for i, c := range p.waiters {
		c <- struct{}{}
		p.waiters[i] = nil
	}
	p.waiters = p.waiters[:0]
	return n
}

// wakeOne/wakeAll wrappers that keep the wake counter honest.
func (p *Pool) wakeOne() {
	if p.idle.wakeOne() {
		p.wakes.Add(1)
	}
}

func (p *Pool) wakeAll() {
	if n := p.idle.wakeAll(); n > 0 {
		p.wakes.Add(uint64(n))
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// ParallelFor executes body(i) for every i in [0, n) using all workers.
// Iterations may run in any order and concurrently; the body must be
// safe for concurrent invocation on distinct indices. grain <= 0 uses
// DefaultGrain. A panicking body is recovered and returned as a
// *PanicError after the other workers drain.
func (p *Pool) ParallelFor(n int, grain int, body func(i int)) error {
	return p.parallel(context.Background(), 0, n, grain, body)
}

// ParallelForCtx is ParallelFor with cancellation: when ctx is
// cancelled the loop stops handing out chunks and returns ctx.Err()
// promptly. Chunks already inside body keep running to completion in
// the background (bodies are not preemptible), so a cancelled loop may
// still execute a bounded amount of trailing work. A loop that has
// already executed all n iterations when the cancellation lands
// returns nil (or the body's error), never a spurious ctx.Err().
func (p *Pool) ParallelForCtx(ctx context.Context, n int, grain int, body func(i int)) error {
	return p.parallel(ctx, 0, n, grain, body)
}

// ParallelForIn is ParallelForCtx over the index interval [lo, hi):
// body receives absolute indices, so a caller running the tail of a
// larger iteration space passes its body unwrapped. A *PanicError
// carries the absolute index too.
func (p *Pool) ParallelForIn(ctx context.Context, lo, hi int, grain int, body func(i int)) error {
	return p.parallel(ctx, lo, hi, grain, body)
}

// runChunk executes one chunk item by item, converting a panic to a
// *PanicError carrying the exact iteration index. One deferred recover
// per chunk keeps the hot loop free of per-item overhead.
func runChunk(body func(int), r Range) (err error) {
	i := r.Start
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	for ; i < r.End; i++ {
		body(i)
	}
	return nil
}

// spinSweeps is how many full steal sweeps an idle worker performs
// (yielding between sweeps) before parking on the pool semaphore. A
// small budget covers the common case — a chunk frees up within
// microseconds — without letting idle workers own a core.
const spinSweeps = 4

// callerRef is the caller's share of loop.refs; the bits below it
// count the worker goroutines that have not yet exited.
const callerRef = 1 << 30

// loop is the recycled state of one parallel loop.
type loop struct {
	p      *Pool
	deques []Deque
	wake   []chan struct{} // one per worker slot, capacity 1
	// done (capacity 1) receives one token from the last worker to
	// exit while the caller still holds its reference.
	done chan struct{}
	// spawn is the bound helper method, built once so that starting a
	// helper goroutine allocates nothing.
	spawn func()

	body func(int)

	remaining atomic.Int64 // iterations not yet executed
	stop      atomic.Bool  // body error or cancellation: take no more chunks
	failed    atomic.Bool  // err has been claimed
	err       error        // first body error, written once by the claimer
	refs      atomic.Int32 // callerRef (while the caller holds it) + live workers
	slot      atomic.Int32 // last worker slot handed to a helper
}

// acquire takes a loop state from the free list (or builds one) and
// seeds its deques with [lo, hi): each worker slot gets an equal
// slice, split into grain-sized chunks.
func (p *Pool) acquire(lo, hi, grain int, body func(int)) *loop {
	var l *loop
	p.freeMu.Lock()
	if k := len(p.free); k > 0 {
		l = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.freeMu.Unlock()
	if l == nil {
		l = &loop{
			p:      p,
			deques: make([]Deque, p.workers),
			wake:   make([]chan struct{}, p.workers),
			done:   make(chan struct{}, 1),
		}
		for w := range l.wake {
			l.wake[w] = make(chan struct{}, 1)
		}
		l.spawn = l.helper
	} else if l.refs.Load() != 0 {
		panic("ws: loop state recycled while a worker still holds it")
	}
	l.body = body
	l.remaining.Store(int64(hi - lo))
	l.stop.Store(false)
	l.failed.Store(false)
	per := (hi - lo + p.workers - 1) / p.workers
	for w := range l.deques {
		d := &l.deques[w]
		d.reset()
		wlo := min(lo+w*per, hi)
		whi := min(wlo+per, hi)
		for s := wlo; s < whi; s += grain {
			d.PushBottom(Range{Start: s, End: min(s+grain, whi)})
		}
	}
	return l
}

// release returns a loop state nobody references to the free list.
func (p *Pool) release(l *loop) {
	l.body, l.err = nil, nil
	p.freeMu.Lock()
	p.free = append(p.free, l)
	p.freeMu.Unlock()
}

// parallel runs one loop over [lo, hi) on the pool. The first body
// error stops all workers (they finish their current chunk, then exit
// without taking more work) and is returned after the loop drains.
//
// An uncancellable loop runs on the caller as worker 0 plus
// workers−1 helpers; the caller returns once every helper has exited.
// (Returning before late helpers exit would leave their states
// unrecyclable for a while, and back-to-back loops would then keep
// building new ones.) A cancellable loop starts all workers and the
// caller waits for either their exit or ctx, so a blocked body cannot
// delay a cancellation. A cancelled caller returns at once and the
// last straggler to exit recycles the state.
func (p *Pool) parallel(ctx context.Context, lo, hi, grain int, body func(int)) error {
	if hi <= lo {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	cancelled := ctx.Done()
	if cancelled == nil && (hi-lo <= grain || p.workers == 1) {
		// Uncancellable small or single-worker loop: run inline.
		return runChunk(body, Range{Start: lo, End: hi})
	}

	l := p.acquire(lo, hi, grain, body)
	if cancelled == nil {
		l.refs.Store(callerRef + int32(p.workers-1))
		l.slot.Store(0)
		for w := 1; w < p.workers; w++ {
			go l.spawn()
		}
		l.work(0)
		<-l.done
		return p.finish(l, ctx)
	}

	l.refs.Store(callerRef + int32(p.workers))
	l.slot.Store(-1)
	for w := 0; w < p.workers; w++ {
		go l.spawn()
	}
	select {
	case <-l.done:
		return p.finish(l, ctx)
	case <-cancelled:
	}
	// Return promptly; workers observe stop at their next chunk
	// boundary and drain in the background.
	l.stop.Store(true)
	p.wakeAll()
	drained := l.remaining.Load() <= 0
	if l.refs.Add(-callerRef) == 0 {
		// Every worker exited in the meantime and the last one sent
		// done: the caller still owns the state, so report the loop's
		// true outcome.
		<-l.done
		return p.finish(l, ctx)
	}
	if drained {
		// Completion won the race: every iteration executed, so the
		// caller gets the drained loop's nil, not a spurious
		// ctx.Err(). (A body error is impossible here — an erroring
		// chunk never decrements remaining.)
		return nil
	}
	return ctx.Err()
}

// finish reports the outcome of a loop whose workers have all exited
// and recycles its state.
func (p *Pool) finish(l *loop, ctx context.Context) error {
	err := l.err
	if err == nil && l.remaining.Load() > 0 {
		err = ctx.Err()
	}
	// A fully drained loop succeeds even if ctx was cancelled in the
	// same instant — a completed loop never reports cancellation.
	l.refs.Store(0)
	p.release(l)
	return err
}

// helper is a worker goroutine's body: it takes the next slot, works,
// and drops its reference. The last worker out either signals the
// waiting caller or, when the caller has already returned, recycles
// the state.
func (l *loop) helper() {
	l.work(int(l.slot.Add(1)))
	switch l.refs.Add(-1) {
	case callerRef:
		l.done <- struct{}{}
	case 0:
		l.p.release(l)
	}
}

// anyQueued reports whether any deque of the loop holds a chunk.
func (l *loop) anyQueued() bool {
	for w := range l.deques {
		if l.deques[w].Size() > 0 {
			return true
		}
	}
	return false
}

// work is the worker loop for slot self. Idle workers do not
// busy-wait: after a bounded spin of steal sweeps they park on the
// pool's semaphore and are woken when a peer claims a chunk whose
// deque still holds more (work propagation), or when the loop
// terminates (drained, body error, or cancellation). All chunks are
// seeded before the workers start, so a parked worker that observed
// every deque empty only ever needs the termination wakeup.
func (l *loop) work(self int) {
	p := l.p
	own := &l.deques[self]
	rng := uint64(self)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	idle := 0
	for l.remaining.Load() > 0 && !l.stop.Load() {
		r, ok := own.PopBottom()
		src := self
		extra := 0
		if !ok {
			// Steal sweep: start at a pseudo-random victim and walk
			// the workers with a per-sweep stride coprime to the
			// worker count, so concurrent thieves fan out across
			// distinct victims instead of converging on the same
			// deque in the same order. A hit batch-steals half the
			// victim's queue: the first chunk runs immediately and
			// the extras land in this worker's own deque, where
			// further thieves can redistribute them.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			victim := int(rng % uint64(p.workers))
			stride := coprimeStride(rng>>32, p.workers)
			for i := 0; i < p.workers && !ok; i++ {
				if victim != self {
					r, extra, ok = l.deques[victim].StealHalf(own)
					src = victim
				}
				if !ok {
					victim += stride
					if victim >= p.workers {
						victim -= p.workers
					}
				}
			}
		}
		if !ok {
			idle++
			if idle < spinSweeps {
				runtime.Gosched()
				continue
			}
			// Out of spin budget: park until terminated or new
			// stealable work is signalled. The recheck between
			// prepare and the blocking receive closes the race
			// with a concurrent waker.
			wake := l.wake[self]
			p.idle.prepare(wake)
			if l.stop.Load() || l.remaining.Load() <= 0 || l.anyQueued() {
				p.idle.cancel(wake)
			} else {
				p.parks.Add(1)
				<-wake
			}
			idle = 0
			continue
		}
		idle = 0
		if src != self {
			p.stealsBy[self].n.Add(uint64(1 + extra))
		}
		// Work propagation: the batch left stealable chunks in
		// this worker's deque, or the victim still has more —
		// either way a parked peer could be helping.
		if extra > 0 || l.deques[src].Size() > 0 {
			p.wakeOne()
		}
		if err := runChunk(l.body, r); err != nil {
			if l.failed.CompareAndSwap(false, true) {
				l.err = err
			}
			l.stop.Store(true)
			p.wakeAll()
			return
		}
		if l.remaining.Add(int64(-r.Len())) <= 0 {
			p.wakeAll()
			return
		}
	}
}

// coprimeStride derives a victim-sweep stride in [1, n) coprime to n
// from the seed bits, so a sweep of n probes visits every worker
// exactly once while different thieves (different seeds) walk the
// workers in different orders.
func coprimeStride(seed uint64, n int) int {
	if n <= 2 {
		return 1
	}
	s := 1 + int(seed%uint64(n-1))
	for gcd(s, n) != 1 {
		s++
		if s >= n {
			s = 1
		}
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

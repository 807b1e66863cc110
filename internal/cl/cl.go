// Package cl is a miniature OpenCL-style runtime for the simulated
// integrated GPU: contexts with shared CPU-GPU buffer accounting,
// in-order command queues, NDRange kernel dispatch, and events.
//
// As in OpenCL, one context may carry many in-order queues. Commands
// on one queue run in enqueue order; commands on different queues are
// independent and overlap. A context lends queues to concurrent
// callers from a free list (AcquireQueue / ReleaseQueue), so each
// in-flight caller enqueues onto a queue of its own, and it keeps the
// enqueue counters (Stats) and a drain (Finish) across every queue it
// created.
//
// Each queue keeps a FIFO of pending commands and runs it on one
// dispatcher goroutine of its own, started when the queue goes from
// idle to busy and exiting when the FIFO is empty; the FIFO is what
// makes the queue in-order. The event an enqueue returns is the
// command's record and is recycled through a free list on its queue:
// it is reused only after its enqueuer called Event.Release and the
// dispatcher resolved it. So a caller that releases its events
// enqueues, dispatches and waits without allocating. An event that is
// never released is garbage-collected instead.
//
// Go has no serviceable OpenCL bindings, so this package substitutes
// for the vendor driver the paper's runtime sits on. Two things matter
// for the reproduction and both are modeled faithfully:
//
//   - the driver-level shared-region limit (the paper's 32-bit tablet
//     restricts CPU-GPU shared buffers to 250 MB, forcing smaller
//     inputs — Table 1, column 4), enforced at buffer allocation; and
//   - the control flow of kernel dispatch: the GPU proxy thread
//     enqueues an NDRange and blocks on its event, exactly the
//     structure the scheduling runtime drives.
//
// Functional execution of kernel bodies runs on host goroutines; the
// *timing* of GPU execution is simulated separately by internal/engine.
//
// The driver is fault-tolerant: a panicking kernel body is recovered
// and surfaced as the event's error instead of crashing the process, a
// hung dispatch (injected via faultinject) blocks its event — and the
// commands behind it on its queue — until the caller abandons it or
// the context abandons every command that has not started, and
// transient enqueue failures report ErrDeviceBusy so callers can retry.
package cl

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
)

// Common errors.
var (
	ErrReleased     = errors.New("cl: object already released")
	ErrOutOfMemory  = errors.New("cl: shared-region allocation failed")
	ErrInvalidValue = errors.New("cl: invalid argument")
	// ErrDeviceBusy is a transient enqueue failure: the device rejected
	// the command but a retry may succeed.
	ErrDeviceBusy = errors.New("cl: device temporarily busy")
	// ErrAborted marks a command abandoned before it executed (the
	// caller timed out on the event, or the queue was torn down).
	ErrAborted = errors.New("cl: command abandoned")
)

// PanicError is a kernel-body panic recovered inside the dispatch
// goroutine; the event that covers the NDRange reports it instead of
// the panic unwinding through the driver.
type PanicError struct {
	// Kernel is the dispatched kernel's name.
	Kernel string
	// GID is the global work-item id whose body panicked.
	GID int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cl: kernel %q panicked at gid %d: %v", e.Kernel, e.GID, e.Value)
}

// Context owns shared CPU-GPU memory accounting for one platform and
// the command queues created on it. It is safe for concurrent use.
type Context struct {
	platform *platform.Platform

	// released and faults are read on every enqueue, so they are
	// atomics; mu guards the buffer accounting.
	released atomic.Bool
	faults   atomic.Pointer[faultinject.Plan]

	mu        sync.Mutex
	allocated int64
	buffers   map[*Buffer]struct{}

	// abort is closed by Abandon: from then on no command of the
	// context starts its body.
	abort     chan struct{}
	abortOnce sync.Once

	// qmu guards the queue registry: every queue created on the context
	// (drained by Finish) and the subset free to lend (AcquireQueue).
	qmu    sync.Mutex
	queues []*CommandQueue
	free   []*CommandQueue

	// Lifetime activity counters summed over every queue (always-on:
	// one atomic add per enqueue, off the per-item dispatch path).
	enqueues atomic.Uint64
	busy     atomic.Uint64
}

// NewContext creates a context on the given platform.
func NewContext(p *platform.Platform) *Context {
	if p == nil {
		panic("cl: nil platform")
	}
	return &Context{platform: p, buffers: map[*Buffer]struct{}{}, abort: make(chan struct{})}
}

// Platform returns the context's platform.
func (c *Context) Platform() *platform.Platform { return c.platform }

// SetFaultPlan attaches a fault-injection plan consulted by command
// queues on this context (nil detaches).
func (c *Context) SetFaultPlan(p *faultinject.Plan) { c.faults.Store(p) }

// AllocatedBytes returns the current shared-region footprint.
func (c *Context) AllocatedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocated
}

// CreateBuffer reserves bytes in the CPU-GPU shared region. It fails
// with ErrOutOfMemory (wrapped with detail) when the platform's
// shared-region limit would be exceeded.
func (c *Context) CreateBuffer(name string, bytes int64) (*Buffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("%w: buffer %q size %d", ErrInvalidValue, name, bytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released.Load() {
		return nil, ErrReleased
	}
	if err := c.platform.CheckSharedAllocation(c.allocated + bytes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOutOfMemory, err)
	}
	b := &Buffer{ctx: c, name: name, bytes: bytes}
	c.allocated += bytes
	c.buffers[b] = struct{}{}
	return b, nil
}

// Release frees all buffers and invalidates the context. Every live
// buffer is marked released, so a later Buffer.Release reports
// ErrReleased (a double free) instead of silently succeeding.
// Releasing an already-released context is a no-op.
func (c *Context) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released.Load() {
		return
	}
	// Lock order is ctx.mu then buffer.mu everywhere (Buffer.Release
	// follows the same order), so marking buffers here cannot deadlock.
	for b := range c.buffers {
		b.mu.Lock()
		b.released = true
		b.mu.Unlock()
	}
	c.allocated = 0
	c.buffers = map[*Buffer]struct{}{}
	c.released.Store(true)
}

// Buffer is a shared-region allocation. The actual data lives in the
// application's Go slices (the platforms are shared-memory, so there is
// no copy); the buffer tracks the footprint against the driver limit.
type Buffer struct {
	ctx   *Context
	name  string
	bytes int64

	mu       sync.Mutex
	released bool
}

// Name returns the buffer's debug name.
func (b *Buffer) Name() string { return b.name }

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.bytes }

// Release returns the buffer's bytes to the shared region. Releasing
// twice — including after the owning context was released — is an
// error.
func (b *Buffer) Release() error {
	b.ctx.mu.Lock()
	defer b.ctx.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released {
		return fmt.Errorf("%w: buffer %q", ErrReleased, b.name)
	}
	b.released = true
	if _, ok := b.ctx.buffers[b]; ok {
		delete(b.ctx.buffers, b)
		b.ctx.allocated -= b.bytes
	}
	return nil
}

// Kernel is a compiled GPU kernel: a name plus the functional body
// executed per work item. Body may be nil for simulation-only runs
// (timing without functional results).
type Kernel struct {
	Name string
	Body func(gid int)
}

// EventStatus is the lifecycle state of an enqueued command.
type EventStatus int32

// Event lifecycle states. Queued, Running and Complete follow
// execution order; Failed marks a dispatch whose kernel body panicked,
// Aborted a command abandoned before its body ran.
const (
	Queued EventStatus = iota
	Running
	Complete
	Failed
	Aborted
)

// An event is held by its enqueuer until Release and by its queue's
// dispatcher until it resolves; refs holds one bit per holder.
const (
	enqueuerRef int32 = 1 << iota
	dispatcherRef
)

// Event tracks an enqueued NDRange. It is also the queue's record of
// the command, and is recycled through the queue's free list once
// both holders have dropped it (see Release).
type Event struct {
	q *CommandQueue

	// The command: written by the enqueuer before the event joins the
	// FIFO, read by the dispatcher after it leaves.
	kernel Kernel
	offset int
	items  int
	faults *faultinject.Plan
	next   *Event // FIFO link, guarded by q.mu

	// done holds one token once the event has resolved (capacity 1);
	// a waiter takes it and puts it back, so every wait sees it.
	done chan struct{}
	// cancel receives one token from the first Abandon (capacity 1);
	// a hung dispatch waits on it.
	cancel    chan struct{}
	abandoned atomic.Bool
	status    atomic.Int32 // EventStatus
	err       error        // written before status turns terminal
	refs      atomic.Int32 // enqueuerRef | dispatcherRef
}

// resolved reports whether the event reached a terminal status.
func (e *Event) resolved() bool { return EventStatus(e.status.Load()) >= Complete }

// waitEnd tells what ended an await.
type waitEnd int

const (
	endResolved waitEnd = iota
	endCanceled
	endExpired
)

// await blocks until the event resolves or until cancel or expire
// fires first, and reports which; a nil channel never fires.
func (e *Event) await(cancel <-chan struct{}, expire <-chan time.Time) waitEnd {
	if e.resolved() {
		return endResolved
	}
	select {
	case <-e.done:
		e.done <- struct{}{} // put the token back for the next waiter
		return endResolved
	case <-cancel:
		return endCanceled
	case <-expire:
		return endExpired
	}
}

// Wait blocks until the command completes and returns its outcome:
// nil on success, a *PanicError if the kernel body panicked, or
// ErrAborted if the command was abandoned.
func (e *Event) Wait() error {
	e.await(nil, nil)
	return e.Err()
}

// WaitCtx is Wait with a deadline: it returns ctx.Err() when the
// context expires first, leaving the command in flight. Callers that
// give up on a command should Abandon it so a hung dispatch releases
// the queue.
func (e *Event) WaitCtx(ctx context.Context) error {
	if e.await(ctx.Done(), nil) == endCanceled {
		return ctx.Err()
	}
	return e.Err()
}

// WaitTimeout is WaitCtx bounded also by d: once d elapses with the
// command unresolved it returns context.DeadlineExceeded, leaving the
// command in flight. d <= 0 means no bound. The wait runs on a timer
// the event's queue owns and resets for each wait, so it allocates
// nothing. One timed wait may run on a queue at a time: a second one
// started while another is still waiting panics.
func (e *Event) WaitTimeout(ctx context.Context, d time.Duration) error {
	if d <= 0 || e.resolved() {
		return e.WaitCtx(ctx)
	}
	t := e.q.startTimer(d)
	end := e.await(ctx.Done(), t.C)
	e.q.stopTimer(end == endExpired)
	switch end {
	case endResolved:
		return e.Err()
	case endCanceled:
		return ctx.Err()
	default:
		return context.DeadlineExceeded
	}
}

// Abandon tells the driver the caller has given up on the command. A
// command that has not started its body (queued, or hung in dispatch)
// terminates as Aborted without executing any work item — which is
// what makes CPU re-execution of the range exactly-once. A body
// already running is not preempted. Abandon is idempotent.
func (e *Event) Abandon() {
	if e.abandoned.CompareAndSwap(false, true) {
		e.cancel <- struct{}{}
	}
}

// Release drops the enqueuer's reference. The caller must not use the
// event afterwards, and every Wait, WaitCtx, Err and Status call on it
// must have returned. Once the command has also resolved, the queue
// reuses the event for a later enqueue. Releasing is optional — an
// event never released is garbage-collected — but releasing twice
// panics.
func (e *Event) Release() {
	if e.drop(enqueuerRef) {
		e.q.mu.Lock()
		e.q.recycleLocked(e)
		e.q.mu.Unlock()
	}
}

// drop clears one holder's bit and reports whether it was the last.
func (e *Event) drop(ref int32) bool {
	for {
		old := e.refs.Load()
		if old&ref == 0 {
			panic("cl: event released twice")
		}
		if e.refs.CompareAndSwap(old, old&^ref) {
			return old == ref
		}
	}
}

// Err returns the command's outcome so far: nil while in flight or
// after success, otherwise the failure.
func (e *Event) Err() error {
	if !e.resolved() {
		return nil
	}
	return e.err
}

// Status returns the command's current state.
func (e *Event) Status() EventStatus { return EventStatus(e.status.Load()) }

// Items returns the NDRange size the event covers.
func (e *Event) Items() int { return e.items }

// resolve settles the event; the dispatcher calls it once per command.
func (e *Event) resolve(s EventStatus, err error) {
	e.err = err
	e.status.Store(int32(s))
	e.done <- struct{}{}
}

// CommandQueue executes NDRanges in order, asynchronously with respect
// to the enqueuing thread — the GPU proxy thread enqueues and then
// waits on the returned event, as in the paper's runtime.
type CommandQueue struct {
	ctx *Context
	// spawn is the bound dispatcher method, built once so that
	// starting the dispatcher allocates nothing.
	spawn func()

	mu         sync.Mutex
	resolvedCV sync.Cond // broadcast as commands resolve (Finish)
	head, tail *Event    // pending commands in enqueue order
	draining   bool      // a dispatcher goroutine owns the FIFO
	enqueued   uint64
	resolved   uint64
	free       []*Event // released, resolved events awaiting reuse

	// timer bounds WaitTimeout. timerBusy marks it held by a timed
	// wait; timer is touched only by the wait holding it.
	timer     *time.Timer
	timerBusy atomic.Bool
}

// QueueStats is a snapshot of a context's lifetime enqueue activity,
// summed over every queue created on it.
type QueueStats struct {
	// Enqueues counts EnqueueNDRange calls that passed argument
	// validation, including those rejected as busy.
	Enqueues uint64
	// Busy counts enqueues transiently rejected with ErrDeviceBusy.
	Busy uint64
}

// Stats returns a snapshot of the context's enqueue counters across
// all of its queues; safe from any goroutine.
func (c *Context) Stats() QueueStats {
	return QueueStats{Enqueues: c.enqueues.Load(), Busy: c.busy.Load()}
}

// NewCommandQueue creates an in-order queue on the context. The
// context counts its enqueues and drains it in Finish.
func NewCommandQueue(ctx *Context) *CommandQueue {
	if ctx == nil {
		panic("cl: nil context")
	}
	q := &CommandQueue{ctx: ctx}
	q.resolvedCV.L = &q.mu
	q.spawn = q.drain
	ctx.qmu.Lock()
	ctx.queues = append(ctx.queues, q)
	ctx.qmu.Unlock()
	return q
}

// AcquireQueue lends the caller an in-order queue of its own: one a
// caller returned earlier, or a new one when none is free. Commands
// on different lent queues overlap, so concurrent callers do not wait
// on each other's NDRanges. A returned queue keeps its in-order rule:
// a command still unresolved on it (say, a hung dispatch its last
// borrower abandoned) holds the next borrower's first command until it
// resolves. The free list grows to the peak number of queues lent at
// once and never shrinks.
func (c *Context) AcquireQueue() *CommandQueue {
	c.qmu.Lock()
	if n := len(c.free); n > 0 {
		q := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.qmu.Unlock()
		return q
	}
	c.qmu.Unlock()
	return NewCommandQueue(c)
}

// ReleaseQueue returns a queue lent by AcquireQueue. Commands already
// enqueued on it keep running; the caller must not enqueue on it again.
func (c *Context) ReleaseQueue(q *CommandQueue) {
	c.qmu.Lock()
	c.free = append(c.free, q)
	c.qmu.Unlock()
}

// Finish blocks until every command enqueued so far on any queue of the
// context has completed.
func (c *Context) Finish() {
	c.qmu.Lock()
	queues := append([]*CommandQueue(nil), c.queues...)
	c.qmu.Unlock()
	for _, q := range queues {
		q.Finish()
	}
}

// Abandon abandons every command on the context's queues that has not
// started its body — queued, or hung in dispatch — and every command
// enqueued later: each resolves as Aborted without executing a work
// item. Bodies already running are not preempted, and Finish still
// waits for them. A runtime whose drain budget has expired calls it
// so that a hung dispatch cannot hold its shutdown forever.
func (c *Context) Abandon() {
	c.abortOnce.Do(func() { close(c.abort) })
}

// abandoned reports whether Abandon has been called.
func (c *Context) abandoned() bool {
	select {
	case <-c.abort:
		return true
	default:
		return false
	}
}

// EnqueueNDRange schedules kernel k over global work items
// [offset, offset+global). It returns immediately with an event. It
// fails with ErrReleased on a released context and with ErrDeviceBusy
// when the device transiently rejects the command (retryable).
func (q *CommandQueue) EnqueueNDRange(k Kernel, offset, global int) (*Event, error) {
	if global <= 0 || offset < 0 {
		return nil, fmt.Errorf("%w: NDRange offset=%d global=%d", ErrInvalidValue, offset, global)
	}
	if q.ctx.released.Load() {
		return nil, fmt.Errorf("%w: enqueue %q on released context", ErrReleased, k.Name)
	}
	faults := q.ctx.faults.Load()
	q.ctx.enqueues.Add(1)
	if _, ok := faults.Take(faultinject.EnqueueError); ok {
		q.ctx.busy.Add(1)
		return nil, fmt.Errorf("%w: NDRange %q rejected", ErrDeviceBusy, k.Name)
	}
	q.mu.Lock()
	ev := q.eventLocked()
	ev.kernel, ev.offset, ev.items, ev.faults = k, offset, global, faults
	if q.tail == nil {
		q.head = ev
	} else {
		q.tail.next = ev
	}
	q.tail = ev
	q.enqueued++
	start := !q.draining
	q.draining = true
	q.mu.Unlock()
	if start {
		go q.spawn()
	}
	return ev, nil
}

// eventLocked takes an event off the free list, or builds one, held by
// both the enqueuer and the dispatcher. Caller holds q.mu.
func (q *CommandQueue) eventLocked() *Event {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &Event{q: q, done: make(chan struct{}, 1), cancel: make(chan struct{}, 1)}
	}
	ev.refs.Store(enqueuerRef | dispatcherRef)
	return ev
}

// recycleLocked resets an event both holders have dropped and puts it
// on the free list. Caller holds q.mu.
func (q *CommandQueue) recycleLocked(ev *Event) {
	ev.kernel, ev.faults, ev.err = Kernel{}, nil, nil
	ev.status.Store(int32(Queued))
	ev.abandoned.Store(false)
	select {
	case <-ev.done:
	default:
	}
	select {
	case <-ev.cancel:
	default:
	}
	q.free = append(q.free, ev)
}

// drain is the queue's dispatcher: it resolves the FIFO's commands in
// enqueue order and exits once the FIFO is empty.
func (q *CommandQueue) drain() {
	q.mu.Lock()
	for q.head != nil {
		ev := q.head
		q.head = ev.next
		if q.head == nil {
			q.tail = nil
		}
		ev.next = nil
		q.mu.Unlock()
		q.dispatch(ev)
		last := ev.drop(dispatcherRef)
		q.mu.Lock()
		if last {
			q.recycleLocked(ev)
		}
		q.resolved++
		q.resolvedCV.Broadcast()
	}
	q.draining = false
	q.mu.Unlock()
}

// dispatch runs one command and resolves its event.
func (q *CommandQueue) dispatch(ev *Event) {
	k := ev.kernel
	if ev.abandoned.Load() || q.ctx.abandoned() {
		ev.resolve(Aborted, fmt.Errorf("%w: kernel %q abandoned while queued", ErrAborted, k.Name))
		return
	}
	ev.status.Store(int32(Running))
	if _, hang := ev.faults.Take(faultinject.KernelHang); hang {
		// The device accepted the kernel but it never starts: the event
		// resolves only when the caller or the context abandons it (or
		// the fault plan releases hangs). The body is never executed.
		select {
		case <-ev.cancel:
		case <-ev.faults.HangReleased():
		case <-q.ctx.abort:
		}
		ev.resolve(Aborted, fmt.Errorf("%w: kernel %q hung in dispatch", ErrAborted, k.Name))
		return
	}
	if err := runKernel(k, ev.offset, ev.items); err != nil {
		ev.resolve(Failed, err)
		return
	}
	ev.resolve(Complete, nil)
}

// runKernel executes the body over the NDRange, converting a panic
// into a *PanicError carrying the faulting gid.
func runKernel(k Kernel, offset, global int) (err error) {
	if k.Body == nil {
		return nil
	}
	gid := offset
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Kernel: k.Name, GID: gid, Value: v, Stack: debug.Stack()}
		}
	}()
	for ; gid < offset+global; gid++ {
		k.Body(gid)
	}
	return nil
}

// Finish blocks until every command enqueued so far has completed.
func (q *CommandQueue) Finish() {
	q.mu.Lock()
	for target := q.enqueued; q.resolved < target; {
		q.resolvedCV.Wait()
	}
	q.mu.Unlock()
}

// startTimer arms the queue's timer for d on behalf of one timed wait.
func (q *CommandQueue) startTimer(d time.Duration) *time.Timer {
	if !q.timerBusy.CompareAndSwap(false, true) {
		panic("cl: overlapping WaitTimeout calls on one command queue")
	}
	if q.timer == nil {
		q.timer = time.NewTimer(d)
	} else {
		q.timer.Reset(d)
	}
	return q.timer
}

// stopTimer stops the queue's timer and frees it for the next wait;
// fired reports whether the wait took the timer's tick. A tick the wait
// did not take is drained, so the next Reset starts on an empty
// channel. With the asynchronous timer channels of go 1.22 modules, a
// timer whose Stop returns false may not have delivered its tick yet;
// the tick always lands in the empty one-slot channel, so the blocking
// receive returns. (With synchronous channels Stop returns false only
// when the tick was taken.)
func (q *CommandQueue) stopTimer(fired bool) {
	if !q.timer.Stop() && !fired {
		<-q.timer.C
	}
	q.timerBusy.Store(false)
}

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
// hung dispatch (injected via faultinject) blocks its event until the
// caller abandons it, and transient enqueue failures report
// ErrDeviceBusy so callers can retry.
package cl

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

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

	mu        sync.Mutex
	allocated int64
	buffers   map[*Buffer]struct{}
	released  bool
	faults    *faultinject.Plan

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
	return &Context{platform: p, buffers: map[*Buffer]struct{}{}}
}

// Platform returns the context's platform.
func (c *Context) Platform() *platform.Platform { return c.platform }

// SetFaultPlan attaches a fault-injection plan consulted by command
// queues on this context (nil detaches).
func (c *Context) SetFaultPlan(p *faultinject.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = p
}

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
	if c.released {
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
	if c.released {
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
	c.released = true
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

// Event tracks an enqueued NDRange.
type Event struct {
	done       chan struct{}
	cancel     chan struct{}
	cancelOnce sync.Once
	mu         sync.Mutex
	status     EventStatus
	err        error
	items      int
}

func newEvent(items int) *Event {
	return &Event{
		done:   make(chan struct{}),
		cancel: make(chan struct{}),
		items:  items,
	}
}

// Wait blocks until the command completes and returns its outcome:
// nil on success, a *PanicError if the kernel body panicked, or
// ErrAborted if the command was abandoned.
func (e *Event) Wait() error {
	<-e.done
	return e.Err()
}

// WaitCtx is Wait with a deadline: it returns ctx.Err() when the
// context expires first, leaving the command in flight. Callers that
// give up on a command should Abandon it so a hung dispatch releases
// the queue.
func (e *Event) WaitCtx(ctx context.Context) error {
	select {
	case <-e.done:
		return e.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abandon tells the driver the caller has given up on the command. A
// command that has not started its body (queued, or hung in dispatch)
// terminates as Aborted without executing any work item — which is
// what makes CPU re-execution of the range exactly-once. A body
// already running is not preempted. Abandon is idempotent.
func (e *Event) Abandon() {
	e.cancelOnce.Do(func() { close(e.cancel) })
}

// Err returns the command's outcome so far: nil while in flight or
// after success, otherwise the failure.
func (e *Event) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Status returns the command's current state.
func (e *Event) Status() EventStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Items returns the NDRange size the event covers.
func (e *Event) Items() int { return e.items }

func (e *Event) setStatus(s EventStatus) {
	e.mu.Lock()
	e.status = s
	e.mu.Unlock()
}

// finish resolves the event exactly once.
func (e *Event) finish(s EventStatus, err error) {
	e.mu.Lock()
	e.status = s
	e.err = err
	e.mu.Unlock()
	close(e.done)
}

// CommandQueue executes NDRanges in order, asynchronously with respect
// to the enqueuing thread — the GPU proxy thread enqueues and then
// waits on the returned event, as in the paper's runtime.
type CommandQueue struct {
	ctx *Context

	mu   sync.Mutex
	tail chan struct{} // completion of the most recently enqueued command
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
	closed := make(chan struct{})
	close(closed)
	q := &CommandQueue{ctx: ctx, tail: closed}
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

// EnqueueNDRange schedules kernel k over global work items
// [offset, offset+global). It returns immediately with an event. It
// fails with ErrReleased on a released context and with ErrDeviceBusy
// when the device transiently rejects the command (retryable).
func (q *CommandQueue) EnqueueNDRange(k Kernel, offset, global int) (*Event, error) {
	if global <= 0 || offset < 0 {
		return nil, fmt.Errorf("%w: NDRange offset=%d global=%d", ErrInvalidValue, offset, global)
	}
	q.ctx.mu.Lock()
	released := q.ctx.released
	faults := q.ctx.faults
	q.ctx.mu.Unlock()
	if released {
		return nil, fmt.Errorf("%w: enqueue %q on released context", ErrReleased, k.Name)
	}
	q.ctx.enqueues.Add(1)
	if faults.TakeEnqueueError() {
		q.ctx.busy.Add(1)
		return nil, fmt.Errorf("%w: NDRange %q rejected", ErrDeviceBusy, k.Name)
	}
	ev := newEvent(global)
	q.mu.Lock()
	prev := q.tail
	q.tail = ev.done
	q.mu.Unlock()

	go dispatch(ev, prev, faults, k, offset, global)
	return ev, nil
}

// dispatch is the queue's worker goroutine for one command.
func dispatch(ev *Event, prev <-chan struct{}, faults *faultinject.Plan, k Kernel, offset, global int) {
	select {
	case <-prev: // in-order execution
	case <-ev.cancel:
		<-prev // keep completion in-order even for abandoned commands
		ev.finish(Aborted, fmt.Errorf("%w: kernel %q abandoned while queued", ErrAborted, k.Name))
		return
	}
	if faults.TakeKernelHang() {
		// The device accepted the kernel but it never starts: the event
		// resolves only when the caller abandons it (or the fault plan
		// releases hangs). The body is never executed.
		ev.setStatus(Running)
		select {
		case <-ev.cancel:
		case <-faults.HangReleased():
		}
		ev.finish(Aborted, fmt.Errorf("%w: kernel %q hung in dispatch", ErrAborted, k.Name))
		return
	}
	ev.setStatus(Running)
	if err := runKernel(k, offset, global); err != nil {
		ev.finish(Failed, err)
		return
	}
	ev.finish(Complete, nil)
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

// Finish blocks until every enqueued command has completed.
func (q *CommandQueue) Finish() {
	q.mu.Lock()
	tail := q.tail
	q.mu.Unlock()
	<-tail
}

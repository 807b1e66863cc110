package cl

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
)

// An event is reused only once its enqueuer has released it and its
// dispatcher has resolved it: a released event whose command still
// runs, and a resolved event its waiter still holds, both stay off the
// free list, and commands enqueued meanwhile get other events.
func TestEventNotRecycledWhileHeld(t *testing.T) {
	q := NewCommandQueue(NewContext(platform.Desktop()))
	gate := make(chan struct{})
	running, err := q.EnqueueNDRange(Kernel{Name: "gated", Body: func(int) { <-gate }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	running.Release() // the dispatcher still holds it
	queued, err := q.EnqueueNDRange(Kernel{Name: "queued"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if queued == running {
		t.Fatal("an event was reused while its dispatcher still held it")
	}
	close(gate)
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	q.Finish() // both commands resolved, the dispatcher dropped both

	next, err := q.EnqueueNDRange(Kernel{Name: "next"}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if next == queued {
		t.Fatal("an event was reused while its waiter still held it")
	}
	if next != running {
		t.Error("a released, resolved event was not reused")
	}
	if err := next.Wait(); err != nil || next.Status() != Complete || next.Items() != 3 {
		t.Errorf("reused event: err=%v status=%v items=%d, want nil/Complete/3", err, next.Status(), next.Items())
	}
	// The held event still reports its own command, however often read.
	for i := 0; i < 3; i++ {
		if err := queued.Wait(); err != nil || queued.Status() != Complete || queued.Items() != 1 {
			t.Fatalf("held event: err=%v status=%v items=%d, want nil/Complete/1", err, queued.Status(), queued.Items())
		}
	}
	next.Release()
	queued.Release()
}

// Enqueues, concurrent waits, abandons and releases mixed over a few
// queues (run with -race): a command abandoned while queued runs none
// of its items, every other command runs each item exactly once, and
// each queue runs its commands in enqueue order.
func TestConcurrentEnqueueWaitAbandonRelease(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	const queues, rounds, perRound, items = 3, 40, 6, 8
	var wg sync.WaitGroup
	for qi := 0; qi < queues; qi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			q := ctx.AcquireQueue()
			defer ctx.ReleaseQueue(q)
			hits := make([]int32, rounds*perRound*items)
			var order []int // command ids in execution order, appended by the dispatcher
			for r := 0; r < rounds; r++ {
				// The round's first command blocks until every other
				// command of the round is queued behind it.
				gate := make(chan struct{})
				evs := make([]*Event, perRound)
				released := make([]bool, perRound)
				abandoned := make([]bool, perRound)
				for c := range evs {
					id := r*perRound + c
					first := c == 0
					body := func(gid int) {
						if gid == 0 {
							if first {
								<-gate
							}
							order = append(order, id)
						}
						atomic.AddInt32(&hits[id*items+gid], 1)
					}
					ev, err := q.EnqueueNDRange(Kernel{Name: "mix", Body: body}, 0, items)
					if err != nil {
						t.Error(err)
						close(gate)
						return
					}
					evs[c] = ev
				}
				// Last to first: the gated command is decided last, so
				// every later one is still queued behind it when abandoned.
				for c := perRound - 1; c >= 0; c-- {
					switch rng.Intn(4) {
					case 0: // abandon: queued for c > 0, maybe already started for c == 0
						evs[c].Abandon()
						abandoned[c] = true
					case 1: // release at once; the dispatcher still holds it
						evs[c].Release()
						released[c] = true
					}
				}
				var waiters sync.WaitGroup
				for c, ev := range evs {
					if released[c] || rng.Intn(2) == 0 {
						continue
					}
					for w := 0; w < 2; w++ {
						waiters.Add(1)
						go func(ev *Event) {
							defer waiters.Done()
							err := ev.Wait()
							if st := ev.Status(); st < Complete || !errors.Is(ev.Err(), err) {
								t.Errorf("after Wait: status=%v Err=%v Wait=%v", st, ev.Err(), err)
							}
						}(ev)
					}
				}
				close(gate)
				waiters.Wait()
				for c, ev := range evs {
					if released[c] {
						continue
					}
					err := ev.Wait()
					aborted := errors.Is(err, ErrAborted)
					switch {
					case abandoned[c] && c > 0 && !aborted:
						t.Errorf("round %d command %d abandoned while queued: Wait = %v, want ErrAborted", r, c, err)
					case !abandoned[c] && err != nil:
						t.Errorf("round %d command %d: Wait = %v", r, c, err)
					}
					if aborted != (ev.Status() == Aborted) {
						t.Errorf("round %d command %d: Wait = %v with status %v", r, c, err, ev.Status())
					}
					want := int32(1)
					if aborted {
						want = 0
					}
					base := (r*perRound + c) * items
					for i := 0; i < items; i++ {
						if got := atomic.LoadInt32(&hits[base+i]); got != want {
							t.Errorf("round %d command %d item %d ran %d times, want %d", r, c, i, got, want)
						}
					}
					ev.Release()
				}
				q.Finish()
				for c := range evs {
					if !released[c] {
						continue
					}
					base := (r*perRound + c) * items
					for i := 0; i < items; i++ {
						if got := atomic.LoadInt32(&hits[base+i]); got != 1 {
							t.Errorf("released round %d command %d item %d ran %d times, want 1", r, c, i, got)
						}
					}
				}
			}
			for i := 1; i < len(order); i++ {
				if order[i] <= order[i-1] {
					t.Errorf("queue ran command %d after %d: out of enqueue order", order[i], order[i-1])
					return
				}
			}
		}(int64(qi + 1))
	}
	wg.Wait()
}

// Context.Abandon resolves every command that has not started its body
// — a hung dispatch, the command queued behind it, and a command
// enqueued later — as Aborted without running an item, while a body
// already running on another queue finishes and Finish waits for it.
func TestContextAbandonSkipsUnstartedCommands(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	var ran atomic.Int64
	body := func(int) { ran.Add(1) }

	rq := NewCommandQueue(ctx)
	started, gate := make(chan struct{}), make(chan struct{})
	running, err := rq.EnqueueNDRange(Kernel{Name: "running", Body: func(int) { close(started); <-gate }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	ctx.SetFaultPlan(plan)
	defer plan.ReleaseHangs()
	hq := NewCommandQueue(ctx)
	hung, err := hq.EnqueueNDRange(Kernel{Name: "hung", Body: body}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	behind, err := hq.EnqueueNDRange(Kernel{Name: "behind", Body: body}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for hung.Status() != Running { // the dispatcher has taken the hang
		runtime.Gosched()
	}

	ctx.Abandon()
	later, err := hq.EnqueueNDRange(Kernel{Name: "later", Body: body}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*Event{hung, behind, later} {
		if err := ev.Wait(); !errors.Is(err, ErrAborted) || ev.Status() != Aborted {
			t.Errorf("unstarted command: Wait = %v status %v, want ErrAborted/Aborted", err, ev.Status())
		}
	}
	if ran.Load() != 0 {
		t.Errorf("abandoned commands ran %d items, want none", ran.Load())
	}
	if running.Status() != Running {
		t.Fatalf("running body's status = %v after Abandon, want Running", running.Status())
	}
	finished := make(chan struct{})
	go func() { ctx.Finish(); close(finished) }()
	close(gate)
	<-finished
	if running.Status() != Complete {
		t.Errorf("Finish returned with the running body's status %v, want Complete", running.Status())
	}
}

// WaitTimeout expires on an unresolved command, and the queue's timer
// it used serves the next timed wait without a stale fire.
func TestWaitTimeoutReusesQueueTimer(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	ctx.SetFaultPlan(plan)
	q := NewCommandQueue(ctx)
	hung, err := q.EnqueueNDRange(Kernel{Name: "hung"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := hung.WaitTimeout(context.Background(), time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitTimeout on a hung command = %v, want DeadlineExceeded", err)
	}
	hung.Abandon()
	if err := hung.WaitTimeout(context.Background(), time.Hour); !errors.Is(err, ErrAborted) {
		t.Fatalf("WaitTimeout after Abandon = %v, want ErrAborted", err)
	}
	hung.Release()
	gate := make(chan struct{})
	ev, err := q.EnqueueNDRange(Kernel{Name: "gated", Body: func(int) { <-gate }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	go close(gate)
	if err := ev.WaitTimeout(context.Background(), time.Hour); err != nil {
		t.Fatalf("WaitTimeout after an expired wait = %v, want nil", err)
	}
	ev.Release()
}

// A timed wait that ends on completion just as its timer fires leaves
// no stale tick in the queue's timer: the next timed wait on the queue,
// with a bound it cannot reach, never reports DeadlineExceeded. Each
// round races a bound against a body of about the same length, on
// two Ps so that the timer can fire while the waiter wakes.
func TestWaitTimeoutLeavesNoStaleTick(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	q := NewCommandQueue(NewContext(platform.Desktop()))
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for i := 0; i < rounds; i++ {
		d := time.Duration(20+i%40) * time.Microsecond
		raced, err := q.EnqueueNDRange(Kernel{Name: "raced", Body: func(int) { spin(d) }}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := raced.WaitTimeout(context.Background(), d); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: raced wait = %v", i, err)
		}
		if err := raced.Wait(); err != nil {
			t.Fatal(err)
		}
		raced.Release()
		next, err := q.EnqueueNDRange(Kernel{Name: "next", Body: func(int) { spin(10 * time.Microsecond) }}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.WaitTimeout(context.Background(), time.Hour); err != nil {
			t.Fatalf("round %d: an hour-long timed wait after a raced one = %v, want nil", i, err)
		}
		next.Release()
	}
}

// spin busy-waits for d, so a body's length does not depend on when
// the scheduler wakes a sleeper.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// A queue's timer serves one timed wait at a time: a second timed wait
// started on the queue while the first still waits panics instead of
// sharing the timer.
func TestOverlappingWaitTimeoutPanics(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	ctx.SetFaultPlan(plan)
	q := NewCommandQueue(ctx)
	hung, err := q.EnqueueNDRange(Kernel{Name: "hung"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- hung.WaitTimeout(context.Background(), time.Hour) }()
	for !q.timerBusy.Load() {
		runtime.Gosched()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an overlapping WaitTimeout did not panic")
			}
		}()
		hung.WaitTimeout(context.Background(), time.Hour)
	}()
	hung.Abandon()
	if err := <-first; !errors.Is(err, ErrAborted) {
		t.Fatalf("first timed wait = %v, want ErrAborted", err)
	}
}

// BenchmarkEnqueueNDRange measures one enqueue → dispatch → wait →
// release round trip on a warm queue, with a plain wait and with a
// timed one. Both allocate nothing.
func BenchmarkEnqueueNDRange(b *testing.B) {
	var sink atomic.Int64
	k := Kernel{Name: "bench", Body: func(gid int) { sink.Add(int64(gid)) }}
	for _, row := range []struct {
		name string
		wait func(*Event) error
	}{
		{"wait", (*Event).Wait},
		{"wait-timeout", func(ev *Event) error { return ev.WaitTimeout(context.Background(), time.Second) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			q := NewCommandQueue(NewContext(platform.Desktop()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, err := q.EnqueueNDRange(k, 0, 64)
				if err != nil {
					b.Fatal(err)
				}
				if err := row.wait(ev); err != nil {
					b.Fatal(err)
				}
				ev.Release()
			}
		})
	}
}

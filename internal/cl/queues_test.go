package cl

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
)

// Queues lent at the same time are distinct and their commands
// overlap; a returned queue is lent again; the context's counters and
// Finish span every queue it created.
func TestLentQueuesOverlapAndRecycle(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	q1, q2 := ctx.AcquireQueue(), ctx.AcquireQueue()
	if q1 == q2 {
		t.Fatal("two queues lent at once are the same queue")
	}
	gate := make(chan struct{})
	var ran atomic.Int64
	ev1, err := q1.EnqueueNDRange(Kernel{Name: "blocked", Body: func(int) { <-gate; ran.Add(1) }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := q2.EnqueueNDRange(Kernel{Name: "free", Body: func(int) { ran.Add(1) }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// q2's command does not wait behind q1's.
	select {
	case <-ev2.done:
	case <-time.After(5 * time.Second):
		t.Fatal("a command on a second queue waited behind the first queue's")
	}
	ctx.ReleaseQueue(q2)
	if q := ctx.AcquireQueue(); q != q2 {
		t.Error("a returned queue was not lent again")
	}

	finished := make(chan struct{})
	go func() { ctx.Finish(); close(finished) }()
	select {
	case <-finished:
		t.Fatal("Finish returned with a command still running on a queue")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-finished
	if ev1.Status() != Complete || ran.Load() != 2 {
		t.Errorf("status=%v ran=%d after Finish, want Complete/2", ev1.Status(), ran.Load())
	}
	if st := ctx.Stats(); st.Enqueues != 2 || st.Busy != 0 {
		t.Errorf("context stats = %+v, want 2 enqueues summed over both queues", st)
	}
}

// The in-order rule survives a queue's return: a hung dispatch
// returned with its queue, not yet abandoned, holds the next
// borrower's command until the abandon resolves it.
func TestReturnedQueueKeepsInOrderRule(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	ctx.SetFaultPlan(plan)

	q := ctx.AcquireQueue()
	hung, err := q.EnqueueNDRange(Kernel{Name: "hung"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ReleaseQueue(q)
	next := ctx.AcquireQueue()
	if next != q {
		t.Fatal("the only free queue was not lent again")
	}
	var ran atomic.Bool
	ev, err := next.EnqueueNDRange(Kernel{Name: "next", Body: func(int) { ran.Store(true) }}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ev.done:
		t.Fatal("the next borrower's command overtook a hung dispatch on the same queue")
	case <-time.After(20 * time.Millisecond):
	}
	hung.Abandon()
	if err := ev.Wait(); err != nil || !ran.Load() {
		t.Fatalf("next command after the abandon: err=%v ran=%v", err, ran.Load())
	}
	if hung.Status() != Aborted {
		t.Errorf("hung status = %v, want Aborted", hung.Status())
	}
}

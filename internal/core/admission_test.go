package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionSerializes(t *testing.T) {
	var a Admission
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tk, err := a.Acquire(context.Background(), AdmitRequest{})
				if err != nil {
					t.Error(err)
					return
				}
				if cur := inside.Add(1); cur > maxInside.Load() {
					maxInside.Store(cur)
				}
				inside.Add(-1)
				a.Release(tk)
			}
		}()
	}
	wg.Wait()
	if maxInside.Load() != 1 {
		t.Errorf("observed %d concurrent holders, want exactly 1", maxInside.Load())
	}
}

// FIFO fairness within a class: waiters are admitted in arrival order,
// not barging order.
func TestAdmissionFIFOOrder(t *testing.T) {
	var a Admission
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wtk, err := a.Acquire(context.Background(), AdmitRequest{Class: ClassBatch})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release(wtk)
		}(i)
		// Ensure goroutine i is queued before i+1 arrives, so arrival
		// order is the loop order.
		waitForWaiters(t, &a, i+1)
	}
	a.Release(tk)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want strict FIFO", order)
		}
	}
}

func TestAdmissionCancelledWhileQueued(t *testing.T) {
	var a Admission
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, AdmitRequest{})
		errCh <- err
	}()
	waitForWaiters(t, &a, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Acquire returned %v, want context.Canceled", err)
	}
	if a.Waiters() != 0 {
		t.Errorf("cancelled waiter still queued (%d waiters)", a.Waiters())
	}
	// The gate must still work: release and reacquire.
	a.Release(tk)
	if tk, err = a.Acquire(context.Background(), AdmitRequest{}); err != nil {
		t.Fatal(err)
	}
	a.Release(tk)
}

func TestAdmissionPreCancelled(t *testing.T) {
	var a Admission
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Acquire(ctx, AdmitRequest{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

// A grant that races with cancellation must be passed on, not leaked —
// otherwise the gate deadlocks for everyone behind the cancelled
// caller. Hammer the race and verify the gate stays usable.
func TestAdmissionGrantCancelRaceDoesNotLeak(t *testing.T) {
	var a Admission
	for i := 0; i < 200; i++ {
		tk, err := a.Acquire(context.Background(), AdmitRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		type grant struct {
			tk  uint64
			err error
		}
		done := make(chan grant, 1)
		go func() {
			wtk, err := a.Acquire(ctx, AdmitRequest{})
			done <- grant{wtk, err}
		}()
		for a.Waiters() != 1 {
			time.Sleep(50 * time.Microsecond)
		}
		// Release (granting the waiter) and cancel concurrently.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.Release(tk) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		if g := <-done; g.err == nil {
			a.Release(g.tk) // waiter won: it owns the gate
		}
		// Whatever the race outcome, the gate must be free again.
		if tk, err = a.Acquire(context.Background(), AdmitRequest{}); err != nil {
			t.Fatal(err)
		}
		a.Release(tk)
	}
}

func TestAdmissionReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var a Admission
	a.Release(1)
}

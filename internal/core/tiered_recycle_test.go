package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A contended wait — park behind the holder, take the handoff, hold —
// allocates nothing once the gate's free lists are warm: the waiter
// record and its grant channel are recycled, and with the watchdog
// armed so are the revocation signal and the one watchdog timer.
func TestContendedAdmissionAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts AdmissionOptions
	}{
		{"plain", AdmissionOptions{}},
		{"watchdog", AdmissionOptions{Watchdog: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tieredGate(tc.opts)
			ctx := context.Background()
			held, err := a.Acquire(ctx, AdmitRequest{})
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			granted := make(chan uint64)
			go func() {
				for range start {
					tk, err := a.Acquire(ctx, AdmitRequest{Tenant: "waiter", Class: ClassBatch})
					if err != nil {
						t.Error(err)
					}
					granted <- tk
				}
			}()
			defer close(start)
			// One contended wait: the helper parks, the holder releases
			// straight to it, and the helper's ticket becomes the hold.
			wait := func() {
				start <- struct{}{}
				for a.Waiters() == 0 {
					runtime.Gosched()
				}
				a.Release(held)
				held = <-granted
			}
			for i := 0; i < 4; i++ {
				wait()
			}
			if n := testing.AllocsPerRun(200, wait); n != 0 {
				t.Errorf("contended Acquire/Release allocates %.1f objects per wait, want 0", n)
			}
			a.Release(held)
		})
	}
}

// A waiter whose context is cancelled in the same instant it is granted
// passes the gate on to the next waiter, and its record returns to the
// free list only after its Acquire is done with it — a waiter that
// arrives while the record is live gets a different one.
func TestWaiterCancelledAsGrantedPassesGateOn(t *testing.T) {
	a := tieredGate(AdmissionOptions{Watchdog: time.Hour})
	bg := context.Background()
	tk, err := a.Acquire(bg, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(bg)
	defer cancel()
	werr := make(chan error, 1)
	go func() {
		wtk, err := a.Acquire(wctx, AdmitRequest{Tenant: "cancelled"})
		if err == nil {
			a.Release(wtk)
		}
		werr <- err
	}()
	waitForWaiters(t, a, 1)
	a.mu.Lock()
	rec := a.queues[ClassInteractive][0]
	a.mu.Unlock()

	next := make(chan uint64, 1)
	go func() {
		ntk, err := a.Acquire(bg, AdmitRequest{Tenant: "next"})
		if err != nil {
			t.Error(err)
		}
		next <- ntk
	}()
	waitForWaiters(t, a, 2)
	a.mu.Lock()
	if a.queues[ClassInteractive][1] == rec {
		t.Error("a live waiter's record was handed to a second Acquire")
	}
	// Cancel and grant inside one critical section: the cancelled
	// waiter wakes on its context and finds its grant token already
	// sent, the race the pass-on path exists for.
	cancel()
	a.releaseLocked(tk, true)
	if !a.busy || a.holder.tenant != "cancelled" {
		t.Fatalf("release granted %q, want the cancelled waiter first", a.holder.tenant)
	}
	a.mu.Unlock()

	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	var ntk uint64
	select {
	case ntk = <-next:
	case <-time.After(5 * time.Second):
		t.Fatal("the gate was not passed on to the next waiter")
	}
	a.mu.Lock()
	free := false
	for _, w := range a.freeWaiters {
		free = free || w == rec
	}
	tokens := len(rec.grant)
	a.mu.Unlock()
	if !free || tokens != 0 {
		t.Errorf("cancelled waiter's record: on free list %v, %d grant tokens left; want recycled with none", free, tokens)
	}
	a.Release(ntk)
	if st := a.Stats(); st.Admitted[ClassInteractive] != 3 || st.LateReleases != 0 {
		t.Errorf("admitted=%d lateReleases=%d, want 3/0", st.Admitted[ClassInteractive], st.LateReleases)
	}
}

// Race-stress waiter recycling: callers whose contexts expire at random
// moments — before queueing, while queued, or as they are granted —
// churn through the gate. Every grant must hold the gate alone, every
// ticket an Acquire returns must be the gate's current one (Release
// panics on any other, such as one read from a record already handed
// to another waiter), and the gate ends free. Run with -race.
func TestWaiterRecyclingUnderCancellation(t *testing.T) {
	a := tieredGate(AdmissionOptions{Watchdog: time.Hour})
	const goroutines, iters = 8, 300
	var inside, admitted, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(50))*time.Microsecond)
				tk, err := a.Acquire(ctx, AdmitRequest{Class: Class(rng.Intn(NumClasses))})
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("Acquire: %v", err)
						return
					}
					cancelled.Add(1)
					continue
				}
				if inside.Add(1) != 1 {
					t.Error("two holders inside the gate")
				}
				runtime.Gosched()
				inside.Add(-1)
				admitted.Add(1)
				a.Release(tk)
			}
		}(g)
	}
	wg.Wait()
	if got := admitted.Load() + cancelled.Load(); got != goroutines*iters {
		t.Errorf("admitted %d + cancelled %d = %d, want %d", admitted.Load(), cancelled.Load(), got, goroutines*iters)
	}
	a.mu.Lock()
	busy, waiters := a.busy, a.waitersLocked()
	a.mu.Unlock()
	if busy || waiters != 0 {
		t.Fatalf("gate busy=%v with %d waiters after every caller left", busy, waiters)
	}
	st := a.Stats()
	var grants uint64
	for _, n := range st.Admitted {
		grants += n
	}
	// Grants passed on by a cancelling waiter are admitted without a
	// successful Acquire, so grants may exceed successes, never trail.
	if grants < uint64(admitted.Load()) {
		t.Errorf("gate granted %d times but %d Acquires succeeded", grants, admitted.Load())
	}
}

// Every grant resets the gate's one watchdog timer, so a fire armed for
// an earlier ticket can run after a later grant. Such a stale fire must
// not revoke the current holder, and the timer must still fire for it.
func TestWatchdogStaleFireIsNoOp(t *testing.T) {
	bg := context.Background()
	a := tieredGate(AdmissionOptions{Watchdog: time.Hour})
	tk1, err := a.Acquire(bg, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.Release(tk1)
	tk2, err := a.Acquire(bg, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.watchdogFire() // left over from tk1's arming
	select {
	case <-a.Revocation(tk2):
		t.Error("stale fire signalled the current holder's revocation")
	default:
	}
	if a.Revoked(tk1) || a.Revoked(tk2) {
		t.Error("stale fire revoked a ticket")
	}
	a.Release(tk2) // panics if the stale fire had handed the gate on
	a.watchdogFire()
	if st := a.Stats(); st.WatchdogStalls != 0 || st.LateReleases != 0 {
		t.Errorf("stalls=%d lateReleases=%d after stale fires, want 0/0", st.WatchdogStalls, st.LateReleases)
	}

	// With a real bound, a stale fire early in a hold leaves the timer
	// armed: the wedged holder is still revoked once the bound passes.
	b := tieredGate(AdmissionOptions{Watchdog: 20 * time.Millisecond})
	tk, err := b.Acquire(bg, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	b.watchdogFire()
	select {
	case <-b.Revocation(tk):
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never revoked the wedged holder after a stale fire")
	}
	if !b.Revoked(tk) {
		t.Error("revocation signalled but the ticket is not marked revoked")
	}
	b.Release(tk) // late release recycles the signal
	if st := b.Stats(); st.WatchdogStalls != 1 || st.LateReleases != 1 {
		t.Errorf("stalls=%d lateReleases=%d, want 1/1", st.WatchdogStalls, st.LateReleases)
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/metrics"
)

// tieredGate returns a gate configured with opts.
func tieredGate(opts AdmissionOptions) *Admission {
	a := &Admission{}
	a.Configure(opts)
	return a
}

// waitForWaiters polls until the gate holds want queued waiters (the
// only way to sequence arrivals deterministically from outside).
func waitForWaiters(t *testing.T, a *Admission, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Waiters() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gate never reached %d waiters (have %d)", want, a.Waiters())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTieredQuotaSheds(t *testing.T) {
	a := tieredGate(AdmissionOptions{TenantRate: 0.001, TenantBurst: 1})
	ctx := context.Background()
	req := AdmitRequest{Tenant: "acme"}

	tk, err := a.Acquire(ctx, req)
	if err != nil {
		t.Fatalf("first acquire within burst: %v", err)
	}
	a.Release(tk)

	_, err = a.Acquire(ctx, req)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("second acquire = %v, want *ErrOverloaded", err)
	}
	if ov.Reason != ShedTenantQuota || ov.Tenant != "acme" {
		t.Errorf("shed = %+v, want tenant-quota for acme", ov)
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want a positive token-refill estimate", ov.RetryAfter)
	}

	// Other tenants are unaffected by acme's empty bucket.
	tk2, err := a.Acquire(ctx, AdmitRequest{Tenant: "globex"})
	if err != nil {
		t.Fatalf("independent tenant was shed: %v", err)
	}
	a.Release(tk2)

	if st := a.Stats(); st.ShedQuota != 1 {
		t.Errorf("ShedQuota = %d, want 1", st.ShedQuota)
	}
}

func TestTieredQueueFullSheds(t *testing.T) {
	a := tieredGate(AdmissionOptions{QueueDepth: 1})
	ctx := context.Background()
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan uint64, 1)
	go func() {
		wtk, werr := a.Acquire(ctx, AdmitRequest{})
		if werr != nil {
			granted <- 0
			return
		}
		granted <- wtk
	}()
	waitForWaiters(t, a, 1)

	_, err = a.Acquire(ctx, AdmitRequest{Tenant: "late"})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ShedQueueFull {
		t.Fatalf("over-depth acquire = %v, want queue-full shed", err)
	}

	a.Release(tk)
	wtk := <-granted
	if wtk == 0 {
		t.Fatal("queued waiter was not granted after release")
	}
	a.Release(wtk)
}

func TestTieredDeadlineShedsAtArrival(t *testing.T) {
	a := tieredGate(AdmissionOptions{})
	ctx := context.Background()
	// Seed the hold estimator with one deliberate ~20ms hold.
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	a.Release(tk)

	// Occupy the gate so the next arrival sees a backlog.
	tk2, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Acquire(ctx, AdmitRequest{DeadlineBudget: time.Millisecond})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ShedDeadline {
		t.Fatalf("infeasible-deadline acquire = %v, want deadline shed", err)
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want backlog estimate", ov.RetryAfter)
	}
	a.Release(tk2)
}

func TestTieredDeadlineShedsAtGrant(t *testing.T) {
	a := tieredGate(AdmissionOptions{})
	ctx := context.Background()
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		_, werr := a.Acquire(ctx, AdmitRequest{DeadlineBudget: 5 * time.Millisecond})
		errs <- werr
	}()
	waitForWaiters(t, a, 1)
	// Hold past the waiter's budget: at grant time it must be shed, not
	// handed a slot it can no longer use.
	time.Sleep(25 * time.Millisecond)
	a.Release(tk)
	var ov *ErrOverloaded
	if werr := <-errs; !errors.As(werr, &ov) || ov.Reason != ShedDeadline {
		t.Fatalf("expired-budget waiter got %v, want deadline shed", werr)
	}
	// The gate must have gone free (grant fell through to nobody).
	tk2, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatalf("gate wedged after grant-time shed: %v", err)
	}
	a.Release(tk2)
}

func TestTieredPriorityOrder(t *testing.T) {
	// Huge aging step: pure class order. A later interactive arrival
	// must overtake an earlier background waiter.
	a := tieredGate(AdmissionOptions{AgingStep: time.Hour})
	ctx := context.Background()
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var order []Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	park := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wtk, werr := a.Acquire(ctx, AdmitRequest{Class: c})
			if werr != nil {
				t.Error(werr)
				return
			}
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			a.Release(wtk)
		}()
	}
	park(ClassBackground)
	waitForWaiters(t, a, 1)
	park(ClassBatch)
	waitForWaiters(t, a, 2)
	park(ClassInteractive)
	waitForWaiters(t, a, 3)

	a.Release(tk)
	wg.Wait()
	want := []Class{ClassInteractive, ClassBatch, ClassBackground}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

func TestTieredAgingPromotesBackground(t *testing.T) {
	// Tiny aging step: a background waiter that has aged past the
	// interactive level must beat a just-arrived interactive waiter —
	// the starvation-proofing bound in action.
	a := tieredGate(AdmissionOptions{AgingStep: time.Millisecond})
	ctx := context.Background()
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var order []Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	park := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wtk, werr := a.Acquire(ctx, AdmitRequest{Class: c})
			if werr != nil {
				t.Error(werr)
				return
			}
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			a.Release(wtk)
		}()
	}
	park(ClassBackground)
	waitForWaiters(t, a, 1)
	// Age the background waiter well past ClassBackground levels.
	time.Sleep(20 * time.Millisecond)
	park(ClassInteractive)
	waitForWaiters(t, a, 2)

	a.Release(tk)
	wg.Wait()
	want := []Class{ClassBackground, ClassInteractive}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("grant order = %v, want %v (aged background first)", order, want)
	}
	st := a.Stats()
	if st.AgingPromotions == 0 {
		t.Error("aged-background overtake not counted as an aging promotion")
	}
}

func TestTieredCancelWhileQueued(t *testing.T) {
	a := tieredGate(AdmissionOptions{})
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, werr := a.Acquire(ctx, AdmitRequest{Class: ClassBatch})
		errs <- werr
	}()
	waitForWaiters(t, a, 1)
	cancel()
	if werr := <-errs; !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", werr)
	}
	waitForWaiters(t, a, 0)
	a.Release(tk)
	// The gate must be free again.
	tk2, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.Release(tk2)
}

func TestWatchdogForceReleasesHungHolder(t *testing.T) {
	stalls := make(chan time.Duration, 1)
	a := tieredGate(AdmissionOptions{Watchdog: 30 * time.Millisecond})
	a.onStall = func(tenant string, held time.Duration) { stalls <- held }
	tk, err := a.Acquire(context.Background(), AdmitRequest{Tenant: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	revoked := a.Revocation(tk)
	// A healthy waiter queued behind the wedged holder.
	granted := make(chan uint64, 1)
	go func() {
		wtk, werr := a.Acquire(context.Background(), AdmitRequest{})
		if werr != nil {
			t.Error(werr)
			granted <- 0
			return
		}
		granted <- wtk
	}()
	waitForWaiters(t, a, 1)

	// Never release: the watchdog must revoke us and free the waiter.
	select {
	case <-revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never revoked the wedged holder")
	}
	select {
	case wtk := <-granted:
		if wtk == 0 {
			t.Fatal("waiter errored")
		}
		a.Release(wtk)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after watchdog force-release")
	}
	if held := <-stalls; held < 30*time.Millisecond {
		t.Errorf("onStall held = %v, want >= watchdog bound", held)
	}
	if !a.Revoked(tk) {
		t.Error("wedged ticket not marked revoked")
	}

	// The wedged holder finally wakes and releases: a counted no-op.
	a.Release(tk)
	st := a.Stats()
	if st.WatchdogStalls != 1 || st.LateReleases != 1 {
		t.Errorf("stalls=%d lateReleases=%d, want 1/1", st.WatchdogStalls, st.LateReleases)
	}
	if a.Revoked(tk) {
		t.Error("revocation record should clear after the late release")
	}
}

// The scheduler-level watchdog path: a fault-injected slow tenant
// wedges while holding the gate; the watchdog revokes it (the caller
// gets ErrAdmissionRevoked), other tenants keep being served, and the
// node never deadlocks.
func TestSchedulerWatchdogBreaksHungTenant(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{
		Admission: AdmissionOptions{Watchdog: 40 * time.Millisecond},
	})
	plan.Script(faultinject.AdmissionHold, 1, float64(10*time.Second))

	hungErr := make(chan error, 1)
	go func() {
		_, err := s.ParallelForCtx(WithRequest(context.Background(), AdmitRequest{Tenant: "wedged"}),
			compKernel(), 200000)
		hungErr <- err
	}()

	// Wait until the hung tenant owns the gate, then pile on a healthy
	// tenant; it must complete despite the wedge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Admission().Stats(); st.Admitted[ClassInteractive] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hung tenant never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.ParallelForCtx(WithRequest(context.Background(), AdmitRequest{Tenant: "healthy"}),
			compKernel(), 200000)
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy tenant failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy tenant deadlocked behind the wedged one")
	}
	select {
	case err := <-hungErr:
		if !errors.Is(err, ErrAdmissionRevoked) {
			t.Fatalf("wedged tenant returned %v, want ErrAdmissionRevoked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged tenant never returned")
	}
	st := s.Admission().Stats()
	if st.WatchdogStalls != 1 {
		t.Errorf("WatchdogStalls = %d, want 1", st.WatchdogStalls)
	}
	if stats := plan.Stats(); stats.Delivered[faultinject.AdmissionHold] != 1 {
		t.Errorf("AdmissionHolds = %d, want 1", stats.Delivered[faultinject.AdmissionHold])
	}
}

// Shed invocations must never reach the α table: the table remembers
// only work that actually executed.
func TestShedNeverTouchesAlphaTable(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{
		Admission: AdmissionOptions{TenantRate: 0.0001, TenantBurst: 1},
	})
	ctx := WithRequest(context.Background(), AdmitRequest{Tenant: "acme"})
	if _, err := s.ParallelForCtx(ctx, compKernel(), 200000); err != nil {
		t.Fatalf("first invocation within burst: %v", err)
	}
	_, err := s.ParallelForCtx(ctx, memKernel(), 200000)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("second invocation = %v, want quota shed", err)
	}
	if _, ok := s.Alpha(memKernel().Name); ok {
		t.Error("shed invocation created an α-table entry")
	}
	if n := s.Kernels(); n != 1 {
		t.Errorf("table remembers %d kernels after shed, want 1", n)
	}
}

// Race-stress the tiered gate: exactly-once admission (never two
// concurrent holders), conservation (every request either admitted or
// shed, exactly once), and eventual service for every class under
// churn. Run with -race.
func TestTieredStressExactlyOnce(t *testing.T) {
	a := tieredGate(AdmissionOptions{
		QueueDepth: 4,
		AgingStep:  time.Millisecond,
	})
	const goroutines = 32
	const perG = 25
	var inside atomic.Int32
	var admitted, shed, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx := context.Background()
				req := AdmitRequest{
					Tenant: []string{"a", "b", "c"}[g%3],
					Class:  Class(g % NumClasses),
				}
				tk, err := a.Acquire(ctx, req)
				if err != nil {
					var ov *ErrOverloaded
					if errors.As(err, &ov) {
						shed.Add(1)
						continue
					}
					if errors.Is(err, context.Canceled) {
						cancelled.Add(1)
						continue
					}
					t.Error(err)
					return
				}
				if on := inside.Add(1); on != 1 {
					t.Errorf("%d concurrent holders inside the gate", on)
				}
				time.Sleep(time.Duration(g%3) * 10 * time.Microsecond)
				inside.Add(-1)
				admitted.Add(1)
				a.Release(tk)
			}
		}(g)
	}
	wg.Wait()
	total := admitted.Load() + shed.Load() + cancelled.Load()
	if total != goroutines*perG {
		t.Errorf("conservation violated: admitted %d + shed %d + cancelled %d != %d",
			admitted.Load(), shed.Load(), cancelled.Load(), goroutines*perG)
	}
	st := a.Stats()
	if got := st.Admitted[0] + st.Admitted[1] + st.Admitted[2]; got != uint64(admitted.Load()) {
		t.Errorf("stats admitted %d != observed %d", got, admitted.Load())
	}
	if st.Shed() != uint64(shed.Load()) {
		t.Errorf("stats shed %d != observed %d", st.Shed(), shed.Load())
	}
	for c := 0; c < NumClasses; c++ {
		if st.QueueDepth[c] != 0 {
			t.Errorf("class %d queue not drained: %d", c, st.QueueDepth[c])
		}
	}
	if a.Waiters() != 0 {
		t.Errorf("gate left %d waiters", a.Waiters())
	}
	// The gate must be reusable after the storm.
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.Release(tk)
}

// No priority inversion beyond the aging bound: while an interactive
// waiter is queued, any background grant must be explainable by aging —
// i.e. the background waiter had waited at least (class difference) ×
// AgingStep longer. The controller counts such grants; anything beyond
// them would be an inversion bug surfacing as a grant-order violation
// in TestTieredPriorityOrder, so here we assert the bound statistically:
// with a huge AgingStep, zero promotions may occur.
func TestTieredNoInversionBeyondAgingBound(t *testing.T) {
	a := tieredGate(AdmissionOptions{AgingStep: time.Hour})
	ctx := context.Background()
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	classOf := func(i int) Class { return Class(i % NumClasses) }
	grants := make(chan Class, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(c Class) {
			defer wg.Done()
			wtk, werr := a.Acquire(ctx, AdmitRequest{Class: c})
			if werr != nil {
				t.Error(werr)
				return
			}
			grants <- c
			time.Sleep(50 * time.Microsecond)
			a.Release(wtk)
		}(classOf(i))
	}
	waitForWaiters(t, a, 30)
	a.Release(tk)
	wg.Wait()
	close(grants)

	// With aging effectively disabled, grants must be non-decreasing in
	// class once each class's queue drains: no background grant while
	// interactive waiters remain.
	remaining := map[Class]int{ClassInteractive: 10, ClassBatch: 10, ClassBackground: 10}
	for c := range grants {
		for higher := ClassInteractive; higher < c; higher++ {
			if remaining[higher] > 0 {
				t.Fatalf("class %v granted while %d class-%v waiters queued (inversion without aging)",
					c, remaining[higher], higher)
			}
		}
		remaining[c]--
	}
	st := a.Stats()
	if st.AgingPromotions != 0 {
		t.Errorf("AgingPromotions = %d with an hour-long AgingStep, want 0", st.AgingPromotions)
	}
}

// Cold-start sheds must never advertise RetryAfter 0: before the first
// release seeds the hold estimator the backlog estimate reads zero, and
// a zero RetryAfter invites every shed client to retry immediately — a
// thundering herd against a gate that is already overloaded. The floor
// (default 1ms) backstops both estimate-based shed sites.
func TestColdStartShedRetryAfterFloored(t *testing.T) {
	ctx := context.Background()

	// Queue-full shed with a never-released holder: AvgHold is still 0.
	a := tieredGate(AdmissionOptions{QueueDepth: 1})
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wtk, werr := a.Acquire(ctx, AdmitRequest{})
		if werr == nil {
			a.Release(wtk)
		}
	}()
	waitForWaiters(t, a, 1)
	_, err = a.Acquire(ctx, AdmitRequest{})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ShedQueueFull {
		t.Fatalf("expected queue-full shed, got %v", err)
	}
	if ov.RetryAfter < time.Millisecond {
		t.Errorf("cold-start queue-full RetryAfter = %v, want >= 1ms floor", ov.RetryAfter)
	}
	a.Release(tk)
	wg.Wait()

	// Grant-time deadline shed: the waiter's budget burns away in the
	// queue while the estimator still reads zero.
	b := tieredGate(AdmissionOptions{})
	tk, err = b.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	shed := make(chan error, 1)
	go func() {
		_, werr := b.Acquire(ctx, AdmitRequest{DeadlineBudget: 2 * time.Millisecond})
		shed <- werr
	}()
	waitForWaiters(t, b, 1)
	time.Sleep(10 * time.Millisecond)
	b.Release(tk)
	if err := <-shed; !errors.As(err, &ov) || ov.Reason != ShedDeadline {
		t.Fatalf("expected grant-time deadline shed, got %v", err)
	} else if ov.RetryAfter < time.Millisecond {
		t.Errorf("cold-start deadline RetryAfter = %v, want >= 1ms floor", ov.RetryAfter)
	}
}

// A negative RetryAfterFloor disables the floor for operators who want
// the raw estimate, zero and all.
func TestRetryAfterFloorDisabled(t *testing.T) {
	ctx := context.Background()
	a := tieredGate(AdmissionOptions{QueueDepth: 1, RetryAfterFloor: -1})
	tk, err := a.Acquire(ctx, AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wtk, werr := a.Acquire(ctx, AdmitRequest{})
		if werr == nil {
			a.Release(wtk)
		}
	}()
	waitForWaiters(t, a, 1)
	_, err = a.Acquire(ctx, AdmitRequest{})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ShedQueueFull {
		t.Fatalf("expected queue-full shed, got %v", err)
	}
	if ov.RetryAfter != 0 {
		t.Errorf("disabled floor: RetryAfter = %v, want raw 0 estimate", ov.RetryAfter)
	}
	a.Release(tk)
	wg.Wait()
}

// Watchdog-revoked holds fold into the hold estimator at half the
// clean-hold weight: visible enough that a genuinely slow population
// raises the backlog estimate, damped enough that a stall burst does
// not drag it to the watchdog bound.
func TestRevokedHoldDownWeighted(t *testing.T) {
	a := tieredGate(AdmissionOptions{})
	a.mu.Lock()
	a.recordHoldLocked(10 * time.Millisecond)
	a.recordRevokedHoldLocked(100 * time.Millisecond)
	a.mu.Unlock()
	st := a.Stats()
	want := time.Duration(0.9*float64(10*time.Millisecond) + 0.1*float64(100*time.Millisecond))
	if st.AvgHold != want {
		t.Errorf("AvgHold = %v after down-weighted revoked hold, want %v", st.AvgHold, want)
	}
	fullWeight := time.Duration(0.8*float64(10*time.Millisecond) + 0.2*float64(100*time.Millisecond))
	if st.AvgHold >= fullWeight {
		t.Errorf("revoked hold folded at clean weight: AvgHold = %v, want < %v", st.AvgHold, fullWeight)
	}

	// Cold start: a revoked hold seeds the estimator outright — some
	// estimate beats none.
	b := tieredGate(AdmissionOptions{})
	b.mu.Lock()
	b.recordRevokedHoldLocked(50 * time.Millisecond)
	b.mu.Unlock()
	if st := b.Stats(); st.AvgHold != 50*time.Millisecond {
		t.Errorf("cold-start revoked hold: AvgHold = %v, want 50ms seed", st.AvgHold)
	}
}

// A grant passed on because the grantee's context was already cancelled
// never ran anything: folding its ~0ns "hold" into the estimator would
// deflate the backlog estimate. The pass-on release must skip the
// recording.
func TestCancelPassOnHoldNotRecorded(t *testing.T) {
	a := tieredGate(AdmissionOptions{})
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.releaseLocked(tk, false)
	a.mu.Unlock()
	if st := a.Stats(); st.AvgHold != 0 {
		t.Errorf("pass-on release recorded a hold: AvgHold = %v, want 0", st.AvgHold)
	}
}

// End to end: a watchdog revocation leaves the estimator seeded, so the
// very next shed already carries a non-zero backlog estimate.
func TestWatchdogRevocationSeedsEstimator(t *testing.T) {
	a := tieredGate(AdmissionOptions{Watchdog: 5 * time.Millisecond})
	tk, err := a.Acquire(context.Background(), AdmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.Stats()
		if st.WatchdogStalls >= 1 {
			if st.AvgHold <= 0 {
				t.Errorf("AvgHold = %v after watchdog revocation, want > 0", st.AvgHold)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired")
		}
		time.Sleep(time.Millisecond)
	}
	a.Release(tk) // late release of the revoked ticket
}

// Admission policy can only reorder, delay or reject invocations, never
// change what an admitted one computes: serial reports are identical
// whatever bounds the gate carries and whatever class the caller asks
// for, as long as nothing is shed.
func TestAdmissionPolicyDecisionEquivalence(t *testing.T) {
	bg := context.Background()
	assertSerialEquivalence(t, []equivRow{
		{"watchdog", Options{Admission: AdmissionOptions{Watchdog: 10 * time.Second}}, bg},
		{"unlimited-quota", Options{Admission: AdmissionOptions{TenantRate: 1e9}}, bg},
		{"background", Options{}, WithRequest(bg, AdmitRequest{Class: ClassBackground})},
	})
}

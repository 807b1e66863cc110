package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/metrics"
)

// waitUntil polls cond until it reports true (tests that must observe
// another goroutine reaching a state with no channel to wait on).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalescedPathZeroAlloc pins the coalesced decision path's
// steady state to zero allocations per invocation: once a kernel's
// decision is cached, followers and solo repeats alike must not
// allocate.
func TestCoalescedPathZeroAlloc(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{Decision: DecisionPolicy{Coalesce: true}})
	k := memKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state coalesced ParallelFor allocates %.1f objects/op, want 0", n)
	}
}

// The exactly-one-profile guarantee: 16 goroutines hammering the same
// unknown kernel through a coalescing scheduler must produce exactly
// one profiled invocation, and every report must carry the same α.
// Run with -race.
func TestCoalesceStressOneProfile(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{Decision: DecisionPolicy{Coalesce: true}})
	const workers = 16
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports []Report
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rep, err := s.ParallelFor(compKernel(), 50000)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			reports = append(reports, rep)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if len(reports) != workers {
		t.Fatalf("got %d reports, want %d", len(reports), workers)
	}
	profiled := 0
	for _, rep := range reports {
		if rep.Profiled {
			profiled++
		}
		if rep.Alpha != reports[0].Alpha {
			t.Errorf("alpha diverged: %v vs %v", rep.Alpha, reports[0].Alpha)
		}
	}
	if profiled != 1 {
		t.Errorf("profiled %d invocations, want exactly 1", profiled)
	}
	led, followed, aborted := s.coal.stats()
	if led < 1 {
		t.Errorf("coalescer led=%d, want >= 1", led)
	}
	if aborted != 0 {
		t.Errorf("coalescer aborted=%d, want 0", aborted)
	}
	_ = followed // scheduling-dependent; may be 0 if the leader won every race
}

// A follower of a published flight executes at the leader's α without
// profiling and still accumulates into the table. The test impersonates
// the leader: it claims the flight directly from the coalescer, lets a
// real invocation join as follower, then publishes a known decision.
func TestCoalesceFollowerUsesPublishedDecision(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{Decision: DecisionPolicy{Coalesce: true}})
	k := compKernel()
	f, leader := s.coal.join(k.Name)
	if !leader {
		t.Fatal("test could not claim flight leadership")
	}

	var (
		rep  Report
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		rep, err = s.ParallelFor(k, 200000)
	}()
	waitUntil(t, "follower to join the flight", func() bool {
		_, followed, _ := s.coal.stats()
		return followed >= 1
	})

	const alpha = 0.75
	f.publish(Decision{Alpha: alpha})
	s.coal.finish(k.Name, f)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coalesced || rep.Profiled {
		t.Errorf("follower: coalesced=%v profiled=%v, want true/false", rep.Coalesced, rep.Profiled)
	}
	if rep.Alpha != alpha {
		t.Errorf("follower alpha = %v, want %v", rep.Alpha, alpha)
	}
	if got, ok := s.Alpha(k.Name); !ok || got != alpha {
		t.Errorf("table after follower: alpha=%v ok=%v, want %v recorded", got, ok, alpha)
	}
}

// A follower of an aborted flight falls back to a full solo decision —
// it profiles itself rather than waiting for a leader that never
// delivers.
func TestCoalesceAbortFallsBackSolo(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{Decision: DecisionPolicy{Coalesce: true}})
	k := compKernel()
	f, leader := s.coal.join(k.Name)
	if !leader {
		t.Fatal("test could not claim flight leadership")
	}

	var (
		rep  Report
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		rep, err = s.ParallelFor(k, 200000)
	}()
	waitUntil(t, "follower to join the flight", func() bool {
		_, followed, _ := s.coal.stats()
		return followed >= 1
	})

	f.abort()
	s.coal.finish(k.Name, f)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coalesced {
		t.Error("abandoned follower should not report Coalesced")
	}
	if !rep.Profiled {
		t.Error("abandoned follower should have run its own solo profile")
	}
}

// The injected leader-fail fault aborts the flight at the publish point
// but must not damage the leader's own invocation: it still profiles,
// still accumulates, and the abort is visible in both the coalescer and
// the fault plan's stats.
func TestCoalesceLeaderFailFault(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{Decision: DecisionPolicy{Coalesce: true}})
	plan.FailCoalesceLeaders(1)

	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Error("leader's own invocation should still profile")
	}
	if _, ok := s.Alpha("compbench"); !ok {
		t.Error("leader-fail fault must not lose the leader's table entry")
	}
	if _, _, aborted := s.coal.stats(); aborted != 1 {
		t.Errorf("coalescer aborted=%d, want 1", aborted)
	}
	if st := plan.Stats(); st.CoalesceLeaderFails != 1 {
		t.Errorf("plan stats CoalesceLeaderFails=%d, want 1", st.CoalesceLeaderFails)
	}
}

// The fresh-entry fast path skips a periodic re-profile when the record
// is young and confident; without the knobs the same schedule
// re-profiles every invocation.
func TestFastPathSkipsPeriodicReprofile(t *testing.T) {
	fast := newEAS(t, metrics.EDP, Options{ReprofileEvery: 1, Decision: DecisionPolicy{TableTTL: time.Hour, MinConfidence: 1}})
	if rep, err := fast.ParallelFor(compKernel(), 200000); err != nil || !rep.Profiled {
		t.Fatalf("first invocation: rep=%+v err=%v, want profiled", rep, err)
	}
	rep, err := fast.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiled || !rep.FastPath {
		t.Errorf("fresh record: profiled=%v fastpath=%v, want false/true", rep.Profiled, rep.FastPath)
	}

	control := newEAS(t, metrics.EDP, Options{ReprofileEvery: 1})
	control.ParallelFor(compKernel(), 200000)
	rep, err = control.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled || rep.FastPath {
		t.Errorf("control without knobs: profiled=%v fastpath=%v, want true/false", rep.Profiled, rep.FastPath)
	}
}

// MinConfidence gates the fast path on accumulated invocations: the
// record must be hit MinConfidence times before a periodic re-profile
// may be skipped.
func TestFastPathMinConfidence(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{ReprofileEvery: 1, Decision: DecisionPolicy{TableTTL: time.Hour, MinConfidence: 3}})
	for i := 1; i <= 3; i++ {
		rep, err := s.ParallelFor(compKernel(), 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Profiled || rep.FastPath {
			t.Errorf("invocation %d below confidence: profiled=%v fastpath=%v, want true/false",
				i, rep.Profiled, rep.FastPath)
		}
	}
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiled || !rep.FastPath {
		t.Errorf("confident record: profiled=%v fastpath=%v, want false/true", rep.Profiled, rep.FastPath)
	}
}

// TableTTL forces a re-profile of a stale record even on the plain
// replay path (no ReprofileEvery).
func TestTableTTLForcesReprofile(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{Decision: DecisionPolicy{TableTTL: time.Millisecond}})
	if rep, err := s.ParallelFor(compKernel(), 200000); err != nil || !rep.Profiled {
		t.Fatalf("first invocation: rep=%+v err=%v, want profiled", rep, err)
	}
	time.Sleep(10 * time.Millisecond)
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Error("record older than TableTTL should be re-profiled")
	}
	if rep.FastPath {
		t.Error("a forced stale re-profile must not be marked FastPath")
	}
}

// With every decision knob at its zero value the batched decision path
// is dead code for serial callers: coalescing only changes what
// concurrent invocations do, and TTL/confidence only matter once a
// table entry is stale or confident enough to skip profiling.
func TestDecisionZeroKnobsByteIdentical(t *testing.T) {
	bg := context.Background()
	assertSerialEquivalence(t, []equivRow{
		{"coalesce", Options{Decision: DecisionPolicy{Coalesce: true}}, bg},
		{"fast-path", Options{Decision: DecisionPolicy{TableTTL: time.Hour, MinConfidence: 2}}, bg},
	})
}

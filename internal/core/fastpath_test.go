package core

import (
	"context"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/metrics"
)

// TestFastPathZeroAlloc pins the fresh-entry fast path's steady state
// to zero allocations per invocation: once a kernel's record is
// confident, every periodic re-profile it skips must cost nothing on
// the heap.
func TestFastPathZeroAlloc(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{ReprofileEvery: 1, Decision: DecisionPolicy{MinConfidence: 1}})
	k := memKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		rep, err := s.ParallelFor(k, 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FastPath {
			t.Fatal("confident record did not take the fast path")
		}
	}); n != 0 {
		t.Errorf("steady-state fast-path ParallelFor allocates %.1f objects/op, want 0", n)
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

// With every decision knob at its zero value the fast path is dead
// code for serial callers: TTL and confidence only matter once a table
// entry is stale or confident enough to skip profiling.
func TestDecisionZeroKnobsByteIdentical(t *testing.T) {
	assertSerialEquivalence(t, []equivRow{
		{"fast-path", Options{Decision: DecisionPolicy{TableTTL: time.Hour, MinConfidence: 2}}, context.Background()},
	})
}

package eas

import (
	"sync"
	"testing"
	"time"
)

// The fresh-entry fast path through the public API: with TableTTL and
// MinConfidence set, a periodic re-profile of a young, confident record
// is skipped and the report says so.
func TestDecisionFastPathPublic(t *testing.T) {
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:         EDP,
		Model:          sharedModel(t),
		ReprofileEvery: 1,
		Decision:       DecisionPolicy{TableTTL: time.Hour, MinConfidence: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	k := computeKernel("fastpath-kernel", func(int) {})
	rep, err := rt.ParallelFor(k, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled || rep.FastPath {
		t.Fatalf("first invocation: profiled=%v fastpath=%v, want true/false", rep.Profiled, rep.FastPath)
	}
	rep, err = rt.ParallelFor(k, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiled || !rep.FastPath {
		t.Errorf("fresh record under ReprofileEvery=1: profiled=%v fastpath=%v, want false/true",
			rep.Profiled, rep.FastPath)
	}
}

// Coalescing through the public API: concurrent same-kernel invocations
// share one profile + α decision end to end.
func TestDecisionCoalescePublic(t *testing.T) {
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:   EDP,
		Model:    sharedModel(t),
		Decision: DecisionPolicy{Coalesce: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	k := computeKernel("coalesce-kernel", func(int) {})
	const workers = 8
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports []*Report
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rep, err := rt.ParallelFor(k, 120000)
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
			t.Errorf("alpha diverged across coalesced invocations: %v vs %v", rep.Alpha, reports[0].Alpha)
		}
	}
	if profiled != 1 {
		t.Errorf("profiled %d invocations, want exactly 1", profiled)
	}
}

// The leaderfail fault script aborts a coalesced flight at its publish
// point without damaging the leader's own invocation.
func TestParseFaultPlanLeaderFail(t *testing.T) {
	plan, err := ParseFaultPlan("leaderfail=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:   EDP,
		Model:    sharedModel(t),
		Faults:   plan,
		Decision: DecisionPolicy{Coalesce: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	k := computeKernel("leaderfail-kernel", func(int) {})
	rep, err := rt.ParallelFor(k, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Error("leader's own invocation should still profile")
	}
	if _, ok := rt.Alpha(k.Name); !ok {
		t.Error("leader-fail fault must not lose the table entry")
	}
	if st := plan.Stats(); st.CoalesceLeaderFails != 1 {
		t.Errorf("Stats().CoalesceLeaderFails = %d, want 1", st.CoalesceLeaderFails)
	}
}

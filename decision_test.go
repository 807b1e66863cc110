package eas

import (
	"reflect"
	"strings"
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

// DecisionPolicy.Coalesce is accepted and ignored. Serially, a runtime
// with it set reports exactly what the zero config reports, field for
// field apart from the wall-clock bounds; concurrently, every
// same-kernel invocation still makes its own decision and no report
// claims to be Coalesced.
func TestDecisionCoalescePublic(t *testing.T) {
	run := func(cfg Config) []Report {
		cfg.Metric, cfg.Model, cfg.ReprofileEvery = EDP, sharedModel(t), 2
		rt, err := NewRuntime(DesktopPlatform(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var reps []Report
		for i, st := range []struct {
			k Kernel
			n int
		}{
			{computeKernel("noop-compute", nil), 200000},
			{memKernel(nil), 120000},
			{computeKernel("noop-compute", nil), 500},
			{computeKernel("noop-compute", nil), 200000},
			{memKernel(nil), 120000},
			{computeKernel("noop-compute", nil), 60000},
		} {
			rep, err := rt.ParallelFor(st.k, st.n)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			r := *rep
			r.Started, r.Finished = time.Time{}, time.Time{}
			reps = append(reps, r)
			rt.ReleaseReport(rep)
		}
		return reps
	}
	want := run(Config{})
	if got := run(Config{Decision: DecisionPolicy{Coalesce: true}}); !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce changed serial reports:\n got %+v\nwant %+v", got, want)
	}

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
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := rt.ParallelFor(k, 120000)
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Coalesced {
				t.Error("report claims Coalesced; decisions are never coalesced")
			}
			rt.ReleaseReport(rep)
		}()
	}
	wg.Wait()
}

// The leaderfail fault went with the decision coalescer it aborted:
// ParseFaultPlan rejects the verb with its usual unknown-fault error,
// alone or after a valid key, rather than accepting a plan that can
// never fire.
func TestParseFaultPlanLeaderFail(t *testing.T) {
	for _, spec := range []string{"leaderfail=2", "gpubusy=1,leaderfail=2"} {
		plan, err := ParseFaultPlan(spec, 1)
		if err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted, want an unknown-fault error", spec)
			continue
		}
		if plan != nil {
			t.Errorf("ParseFaultPlan(%q) returned a plan with its error", spec)
		}
		if want := `unknown fault "leaderfail"`; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseFaultPlan(%q) = %v, want it to contain %s", spec, err, want)
		}
	}
}

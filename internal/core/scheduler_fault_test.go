package core

import (
	"testing"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
)

// newFaultyEAS builds a scheduler whose engine consults the plan.
func newFaultyEAS(t *testing.T, opts Options) (*Scheduler, *faultinject.Plan) {
	t.Helper()
	eng := engine.New(platform.Desktop())
	plan := faultinject.New(11)
	eng.SetFaultPlan(plan)
	s, err := New(eng, desktopModel(t), metrics.EDP, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, plan
}

func TestTransientBusySucceedsWithinRetries(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{})
	plan.Script(faultinject.GPUBusy, 2, 0) // default budget is 3 attempts: 2 failures fit
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatalf("transient busy should be retried away: %v", err)
	}
	if rep.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rep.Retries)
	}
	if rep.GPUBusyFallback {
		t.Error("transient busy within budget must not degrade to CPU-only")
	}
	if rep.CPUItems+rep.GPUItems < 199999 {
		t.Errorf("retired %v items, want 200000", rep.CPUItems+rep.GPUItems)
	}
	if _, ok := s.Alpha(compKernel().Name); !ok {
		t.Error("successful run after retries should feed the α table")
	}
}

func TestPersistentBusyFallsBackWithoutPoisoningAlpha(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{})

	// First invocation: healthy, establishes a remembered α.
	rep1, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := s.Alpha(compKernel().Name)
	if !ok {
		t.Fatal("first run recorded no α")
	}
	if rep1.GPUBusyFallback {
		t.Fatal("healthy run reported fallback")
	}

	// Second invocation: GPU busy beyond the whole retry budget.
	plan.Script(faultinject.GPUBusy, 100, 0)
	rep2, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatalf("persistent busy should degrade, not fail: %v", err)
	}
	if !rep2.GPUBusyFallback {
		t.Error("expected GPUBusyFallback after exhausted retries")
	}
	// Every attempt of the default 3-attempt budget found the device
	// busy; the final exhausted attempt counts too, so Retries equals
	// MaxAttempts — not MaxAttempts-1 — on fallback paths.
	if want := (Retry{}).withDefaults().MaxAttempts; rep2.Retries != want {
		t.Errorf("Retries = %d, want %d (exhausted budget must count the final busy attempt)", rep2.Retries, want)
	}
	if rep2.Alpha != 0 {
		t.Errorf("fallback ran at α=%v, want 0", rep2.Alpha)
	}
	if rep2.GPUItems != 0 {
		t.Errorf("fallback retired %v GPU items, want 0", rep2.GPUItems)
	}
	if rep2.CPUItems < 199999 {
		t.Errorf("fallback retired %v CPU items, want 200000", rep2.CPUItems)
	}
	got, _ := s.Alpha(compKernel().Name)
	if got != want {
		t.Errorf("fallback poisoned remembered α: %v -> %v", want, got)
	}
}

func TestPersistentBusyDuringFirstProfileFallsBack(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{})
	plan.Script(faultinject.GPUBusy, 100, 0)
	rep, err := s.ParallelFor(memKernel(), 200000)
	if err != nil {
		t.Fatalf("busy during profiling should degrade, not fail: %v", err)
	}
	if !rep.GPUBusyFallback {
		t.Error("expected fallback")
	}
	if rep.CPUItems < 199999 {
		t.Errorf("retired %v CPU items, want all 200000", rep.CPUItems)
	}
	if _, ok := s.Alpha(memKernel().Name); ok {
		t.Error("fallback-only run must not enter the α table")
	}
}

func TestRetryBackoffAdvancesSimulatedTime(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{})
	plan.Script(faultinject.GPUBusy, 2, 0)
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newFaultyEAS(t, Options{})
	clean, err := s2.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= clean.Duration {
		t.Errorf("retried run (%v) should take longer than clean run (%v): backoff is simulated time",
			rep.Duration, clean.Duration)
	}
}

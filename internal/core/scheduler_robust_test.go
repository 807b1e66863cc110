package core

import (
	"context"
	"math"
	"testing"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/robust"
	"github.com/hetsched/eas/internal/wclass"
)

// newSensorFaultyEAS builds a scheduler whose platform sensors AND
// engine dispatch consult one scripted plan. SetSensorFaults must run
// before New: the robust meter captures the (wrapped) MSR pointer.
func newSensorFaultyEAS(t *testing.T, opts Options, seed int64) (*Scheduler, *faultinject.Plan) {
	t.Helper()
	p := platform.Desktop()
	plan := faultinject.New(seed)
	p.SetSensorFaults(plan)
	eng := engine.New(p)
	eng.SetFaultPlan(plan)
	s, err := New(eng, desktopModel(t), metrics.EDP, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, plan
}

func TestRobustMeterSubstitutesWhenMSRStuck(t *testing.T) {
	s, plan := newSensorFaultyEAS(t, Options{Robustness: Robustness{Meter: true}}, 7)
	plan.Script(faultinject.StuckMSR, 100000, 0) // every read latches
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeterSamplesRejected == 0 {
		t.Error("stuck MSR produced no rejected samples")
	}
	if rep.Telemetry != robust.Failed {
		t.Errorf("Telemetry = %v with a fully stuck MSR, want failed", rep.Telemetry)
	}
	if math.IsNaN(rep.EnergyJ) || math.IsInf(rep.EnergyJ, 0) || rep.EnergyJ < 0 {
		t.Errorf("EnergyJ = %v, want finite non-negative substitution", rep.EnergyJ)
	}
	// The post-profiling remainder has a predicted P(α): its energy is
	// substituted, so the report is not stuck at zero.
	if rep.EnergyJ == 0 {
		t.Error("EnergyJ = 0: predicted-power substitution never engaged")
	}
}

func TestRobustMeterFlagsWrapGap(t *testing.T) {
	s, plan := newSensorFaultyEAS(t, Options{Robustness: Robustness{Meter: true}}, 7)
	horizon := s.eng.Platform().MSR.WrapHorizonJoules()
	// Two gapped reads: the first lands on the invocation-boundary
	// Resync (discarded unjudged), the second inside a measured
	// interval, where it must be flagged.
	plan.Script(faultinject.WrapGap, 2, 2.5*horizon)
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeterSamplesRejected == 0 {
		t.Error("multi-wrap gap not rejected")
	}
	if rep.Telemetry == robust.Healthy {
		t.Error("Telemetry healthy despite a multi-wrap gap")
	}
	if math.IsNaN(rep.EnergyJ) || math.IsInf(rep.EnergyJ, 0) || rep.EnergyJ < 0 ||
		rep.EnergyJ > 10*horizon {
		t.Errorf("EnergyJ = %v not plausible after wrap-gap substitution", rep.EnergyJ)
	}
}

func TestRobustMeterCleanRunStaysHealthy(t *testing.T) {
	s, _ := newSensorFaultyEAS(t, Options{Robustness: Robustness{Meter: true}}, 7)
	rep, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry != robust.Healthy || rep.MeterSamplesRejected != 0 {
		t.Errorf("clean run: Telemetry=%v rejected=%d, want healthy/0",
			rep.Telemetry, rep.MeterSamplesRejected)
	}
	if rep.EnergyJ <= 0 {
		t.Errorf("clean run EnergyJ = %v, want positive measured energy", rep.EnergyJ)
	}
}

func TestQuarantinedProfileNeverReachesTable(t *testing.T) {
	s, plan := newSensorFaultyEAS(t, Options{Robustness: Robustness{ValidateProfiles: true}, ReprofileEvery: 2}, 7)

	// Invocation 1: clean — establishes the known-good record.
	rep1, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Profiled || rep1.ProfileQuarantined {
		t.Fatalf("clean first run: Profiled=%v Quarantined=%v", rep1.Profiled, rep1.ProfileQuarantined)
	}
	alpha1, ok := s.Alpha(compKernel().Name)
	if !ok {
		t.Fatal("first run recorded nothing")
	}

	// Invocation 2 re-profiles (ReprofileEvery=2) with corrupted
	// hardware counters: NaN observation → quarantine.
	plan.Script(faultinject.HWCCorrupt, 4, 0)
	rep2, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatalf("quarantine must degrade, not fail: %v", err)
	}
	if !rep2.ProfileQuarantined {
		t.Fatal("NaN-countered profile not quarantined")
	}
	if rep2.Telemetry == robust.Healthy {
		t.Error("quarantined invocation still reports healthy telemetry")
	}
	if rep2.Alpha != alpha1 {
		t.Errorf("quarantined invocation ran at α=%v, want last known-good %v", rep2.Alpha, alpha1)
	}
	if got, _ := s.Alpha(compKernel().Name); got != alpha1 {
		t.Errorf("quarantined profile moved remembered α: %v -> %v", alpha1, got)
	}

	// Invocation 3: counters clean again — the quarantine flag forces a
	// fresh profile, which succeeds and is accumulated.
	rep3, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Profiled || rep3.ProfileQuarantined {
		t.Fatalf("post-quarantine run: Profiled=%v Quarantined=%v, want re-profile and success",
			rep3.Profiled, rep3.ProfileQuarantined)
	}

	// Invocation 4: ordinal 3 (quarantine did not advance the count),
	// not a multiple of 2 and the reprofile flag is cleared — replay.
	rep4, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Profiled {
		t.Error("reprofile flag not cleared by the successful profile")
	}
}

// A quarantined re-profile of a known kernel replays the last
// known-good α, and the remainder it executes is as predictable as any
// replay: with the package MSR stuck, the robust meter must bill a
// rejected sample at the model's P(α) for that α, not at the window
// median.
func TestQuarantinedReplaySubstitutesPredictedPower(t *testing.T) {
	opts := Options{Robustness: Robustness{ValidateProfiles: true, Meter: true}, ReprofileEvery: 2}
	s, plan := newSensorFaultyEAS(t, opts, 7)
	k := compKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil {
		t.Fatal(err)
	}
	var rec record
	if !s.table.intern(k.Name).snapshot(&rec) {
		t.Fatal("first run recorded nothing")
	}
	curve, _ := s.curve(rec.category)
	want := curve.Power(rec.alpha)

	plan.Script(faultinject.HWCCorrupt, 4, 0)    // invocation 2 re-profiles into a quarantine
	plan.Script(faultinject.StuckMSR, 100000, 0) // and every energy read latches
	rep, err := s.ParallelFor(k, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProfileQuarantined || rep.Alpha != rec.alpha {
		t.Fatalf("invocation 2: quarantined=%v α=%v, want a quarantined replay of α=%v",
			rep.ProfileQuarantined, rep.Alpha, rec.alpha)
	}
	if rep.MeterSamplesRejected == 0 {
		t.Fatal("stuck MSR produced no rejected samples")
	}
	if s.invPredW != want {
		t.Errorf("rejected samples substituted at %v W, want P(α=%v) = %v W", s.invPredW, rec.alpha, want)
	}
}

func TestQuarantineOnUnknownKernelRunsCPUOnly(t *testing.T) {
	s, plan := newSensorFaultyEAS(t, Options{Robustness: Robustness{ValidateProfiles: true}}, 7)
	plan.Script(faultinject.HWCCorrupt, 4, 0)
	rep, err := s.ParallelFor(memKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProfileQuarantined {
		t.Fatal("corrupt first profile not quarantined")
	}
	if rep.Alpha != 0 {
		t.Errorf("no known-good α exists, remainder ran at α=%v, want 0", rep.Alpha)
	}
	if _, ok := s.Alpha(memKernel().Name); ok {
		t.Error("quarantined profile of an unknown kernel entered the table")
	}
}

func TestCategoryHysteresisResistsWhipsaw(t *testing.T) {
	tbl := newAlphaTable()
	catA := wclass.Category{Memory: true}
	catB := wclass.Category{CPUShort: true}
	catC := wclass.Category{GPUShort: true}

	tbl.accumulate("k", 0.5, 1000, catA, 2)
	tbl.accumulate("k", 0.5, 1000, catB, 2) // 1st disagreement: held
	if rec, _ := tbl.lookup("k"); rec.category != catA {
		t.Fatalf("one noisy profile flipped the category to %v", rec.category)
	}
	tbl.accumulate("k", 0.5, 1000, catA, 2) // agreement clears the pending flip
	tbl.accumulate("k", 0.5, 1000, catB, 2) // 1st again
	if rec, _ := tbl.lookup("k"); rec.category != catA {
		t.Fatal("pending disagreement not cleared by an agreeing profile")
	}
	tbl.accumulate("k", 0.5, 1000, catB, 2) // 2nd consecutive: flips
	if rec, _ := tbl.lookup("k"); rec.category != catB {
		t.Fatal("two consecutive disagreeing profiles did not flip the category")
	}
	// A disagreement toward a different category restarts the count.
	tbl.accumulate("k", 0.5, 1000, catA, 2)
	tbl.accumulate("k", 0.5, 1000, catC, 2)
	if rec, _ := tbl.lookup("k"); rec.category != catB {
		t.Fatal("mixed disagreements flipped the category")
	}

	// Hysteresis off: last writer wins, as before.
	tbl2 := newAlphaTable()
	tbl2.accumulate("k", 0.5, 1000, catA, 0)
	tbl2.accumulate("k", 0.5, 1000, catB, 0)
	if rec, _ := tbl2.lookup("k"); rec.category != catB {
		t.Fatal("hysteresis=0 must keep last-writer-wins")
	}
}

func TestBreakerLifecycleInScheduler(t *testing.T) {
	s, plan := newFaultyEAS(t, Options{BreakerThreshold: 2, BreakerProbeAfter: 2})
	// Each fallback invocation burns the full 3-attempt retry budget on
	// its first profiling dispatch: 3 scripted busy counts per
	// invocation. 9 counts = two trips plus one failed probe.
	plan.Script(faultinject.GPUBusy, 9, 0)

	// Invocations 1-2: real fallbacks — the breaker opens at 2.
	for i := 0; i < 2; i++ {
		rep, err := s.ParallelFor(compKernel(), 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.GPUBusyFallback || rep.BreakerOpen {
			t.Fatalf("invocation %d: GPUBusyFallback=%v BreakerOpen=%v", i+1, rep.GPUBusyFallback, rep.BreakerOpen)
		}
	}
	if st := s.Breaker().State(); st != robust.BreakerOpen {
		t.Fatalf("breaker state = %v after threshold fallbacks, want open", st)
	}

	// Invocation 3: suppressed — CPU-only without touching the GPU.
	rep3, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.BreakerOpen {
		t.Fatal("suppressed invocation not marked BreakerOpen")
	}
	if rep3.Retries != 0 {
		t.Errorf("suppressed invocation paid %d dispatch retries, want 0", rep3.Retries)
	}
	if rep3.GPUItems != 0 {
		t.Errorf("suppressed invocation retired %v GPU items", rep3.GPUItems)
	}

	// Invocation 4: probe admitted (probeAfter=2) — still busy, so the
	// probe falls back and the breaker re-opens.
	rep4, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.BreakerOpen || !rep4.GPUBusyFallback {
		t.Fatalf("probe invocation: BreakerOpen=%v GPUBusyFallback=%v, want probe that fell back",
			rep4.BreakerOpen, rep4.GPUBusyFallback)
	}
	if st := s.Breaker().State(); st != robust.BreakerOpen {
		t.Fatalf("breaker state = %v after failed probe, want open", st)
	}

	// Invocation 5: suppressed again; invocation 6: probe with the GPU
	// healthy — the breaker closes and the run is recorded.
	rep5, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep5.BreakerOpen {
		t.Fatal("post-reopen invocation not suppressed")
	}
	rep6, err := s.ParallelFor(compKernel(), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep6.GPUBusyFallback || rep6.BreakerOpen {
		t.Fatalf("healthy probe: GPUBusyFallback=%v BreakerOpen=%v", rep6.GPUBusyFallback, rep6.BreakerOpen)
	}
	if rep6.BreakerState != robust.BreakerClosed {
		t.Fatalf("BreakerState = %v after successful probe, want closed", rep6.BreakerState)
	}
	if _, ok := s.Alpha(compKernel().Name); !ok {
		t.Error("successful probe run should feed the α table")
	}
	if trips := s.Breaker().Trips(); trips != 2 {
		t.Errorf("Trips = %d, want 2", trips)
	}
}

// With the breaker disabled (threshold 0) every report, including the
// GPU-busy fallback interplay, must equal a scheduler with no
// robustness knobs at all, under the same fault script and seed.
func TestBreakerDisabledIsByteIdenticalToLegacy(t *testing.T) {
	assertSerialEquivalence(t, []equivRow{
		// Threshold 0 disables the breaker regardless of the probe knob.
		{"breaker-off", Options{BreakerThreshold: 0, BreakerProbeAfter: 7}, context.Background()},
	})
}

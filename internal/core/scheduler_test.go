package core

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/statestore"
)

var (
	charOnce  sync.Once
	deskModel *powerchar.Model
	charErr   error
)

func desktopModel(t *testing.T) *powerchar.Model {
	t.Helper()
	charOnce.Do(func() {
		deskModel, charErr = powerchar.Characterize(platform.DesktopSpec(), powerchar.Options{})
	})
	if charErr != nil {
		t.Fatalf("characterization: %v", charErr)
	}
	return deskModel
}

func newEAS(t *testing.T, metric metrics.Metric, opts Options) *Scheduler {
	t.Helper()
	s, err := New(engine.New(platform.Desktop()), desktopModel(t), metric, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func memKernel() engine.Kernel {
	return engine.Kernel{
		Name: "membench",
		Cost: device.CostProfile{FLOPs: 10, MemOps: 100, L3MissRatio: 0.6, Instructions: 500},
	}
}

func compKernel() engine.Kernel {
	return engine.Kernel{
		Name: "compbench",
		Cost: device.CostProfile{FLOPs: 20000, MemOps: 20, L3MissRatio: 0.02, Instructions: 3000},
	}
}

func TestNewValidation(t *testing.T) {
	eng := engine.New(platform.Desktop())
	model := desktopModel(t)
	if _, err := New(nil, model, metrics.EDP, Options{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, nil, metrics.EDP, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(eng, &powerchar.Model{Curves: map[string]powerchar.Curve{}}, metrics.EDP, Options{}); err == nil {
		t.Error("incomplete model accepted")
	}
	if _, err := New(eng, model, metrics.Metric{}, Options{}); err == nil {
		t.Error("invalid metric accepted")
	}
}

func TestSmallNRunsCPUAlone(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{})
	rep, err := s.ParallelFor(compKernel(), 100) // below GPU_PROFILE_SIZE (2240)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUItems != 0 {
		t.Errorf("small N should not touch the GPU: %v items", rep.GPUItems)
	}
	if rep.Alpha != 0 || rep.Profiled {
		t.Errorf("small N: alpha=%v profiled=%v", rep.Alpha, rep.Profiled)
	}
	// A tiny invocation must not poison the table: a later large
	// invocation still profiles.
	rep2, err := s.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Profiled {
		t.Error("large invocation after small one should still profile")
	}
}

func TestGPUBusyFallback(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{})
	s.eng.Platform().SetGPUBusy(true)
	rep, err := s.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GPUBusyFallback || rep.GPUItems != 0 {
		t.Errorf("busy GPU should force CPU-only: %+v", rep)
	}
	if _, ok := s.Alpha("compbench"); ok {
		t.Error("busy-GPU fallback should not poison the kernel table")
	}
}

func TestFirstInvocationProfiles(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	const n = 2e6
	rep, err := s.ParallelFor(memKernel(), n)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled || rep.ProfileSteps < 1 {
		t.Errorf("first invocation should profile: %+v", rep)
	}
	if !rep.Category.Memory {
		t.Errorf("memory kernel misclassified: %s", rep.Category)
	}
	total := rep.CPUItems + rep.GPUItems
	if math.Abs(total-n) > 1 {
		t.Errorf("work conservation: processed %v of %v", total, n)
	}
	if rep.Duration <= 0 || rep.EnergyJ <= 0 {
		t.Errorf("missing measurements: %+v", rep)
	}
}

func TestMemoryBoundEDPUsesBothDevices(t *testing.T) {
	// On the desktop, memory-bound work has similar device speeds, so
	// the EDP optimum splits across both devices.
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	rep, err := s.ParallelFor(memKernel(), 4e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alpha <= 0.05 || rep.Alpha >= 0.95 {
		t.Errorf("memory-bound EDP alpha = %v, want interior split", rep.Alpha)
	}
	if rep.CPUItems == 0 || rep.GPUItems == 0 {
		t.Errorf("both devices should work: cpu=%v gpu=%v", rep.CPUItems, rep.GPUItems)
	}
}

func TestComputeBoundEnergyPrefersGPU(t *testing.T) {
	// Compute-bound on the desktop: the GPU is both faster and far
	// more power-efficient, so the energy optimum is GPU-heavy.
	s := newEAS(t, metrics.Energy, Options{GrowProfileChunk: true})
	rep, err := s.ParallelFor(compKernel(), 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alpha < 0.7 {
		t.Errorf("compute-bound energy alpha = %v, want ≥0.7", rep.Alpha)
	}
	if rep.Category.Memory {
		t.Errorf("compute kernel misclassified: %s", rep.Category)
	}
}

func TestSecondInvocationReusesAlpha(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	k := memKernel()
	rep1, err := s.ParallelFor(k, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s.ParallelFor(k, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Profiled {
		t.Error("second invocation should reuse the table entry")
	}
	if math.Abs(rep2.Alpha-rep1.Alpha) > 0.3 {
		t.Errorf("reused alpha %v far from first %v", rep2.Alpha, rep1.Alpha)
	}
}

func TestSampleWeightedAccumulation(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	k := memKernel()
	if _, err := s.ParallelFor(k, 2e6); err != nil {
		t.Fatal(err)
	}
	a1, _ := s.Alpha(k.Name)
	if _, err := s.ParallelFor(k, 2e6); err != nil {
		t.Fatal(err)
	}
	a2, _ := s.Alpha(k.Name)
	// Re-running with the same α keeps the accumulated value stable.
	if math.Abs(a1-a2) > 1e-6 {
		t.Errorf("accumulated alpha drifted with identical reuse: %v -> %v", a1, a2)
	}
}

func TestReprofileEvery(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{ReprofileEvery: 1, GrowProfileChunk: true})
	k := memKernel()
	for i := 0; i < 3; i++ {
		rep, err := s.ParallelFor(k, 2e6)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Profiled {
			t.Errorf("invocation %d: ReprofileEvery=1 should profile every time", i)
		}
	}
}

// TestReprofileSchedule pins the exact firing schedule for small k:
// counting the initial profiled invocation as ordinal 1, every
// invocation whose ordinal is a multiple of k re-profiles. In
// particular k=2 fires first on the 2nd invocation, not the 3rd — the
// off-by-one this test guards against.
func TestReprofileSchedule(t *testing.T) {
	const runs = 6
	want := map[int][runs]bool{
		// ordinal:      1     2      3      4      5      6
		1: {true, true, true, true, true, true},
		2: {true, true, false, true, false, true},
		3: {true, false, true, false, false, true},
	}
	for k, expect := range want {
		s := newEAS(t, metrics.EDP, Options{ReprofileEvery: k})
		for i := 0; i < runs; i++ {
			rep, err := s.ParallelFor(memKernel(), 2e6)
			if err != nil {
				t.Fatalf("k=%d invocation %d: %v", k, i+1, err)
			}
			if rep.Profiled != expect[i] {
				t.Errorf("k=%d invocation %d: Profiled = %v, want %v",
					k, i+1, rep.Profiled, expect[i])
			}
		}
	}
}

// TestProfileDue pins the one profile-due rule decide applies, row by
// row, as the exact (profile, fastPath) pair. The scheduler re-profiles
// every 2nd invocation; the fast path needs a record younger than an
// hour with at least 3 recorded invocations.
func TestProfileDue(t *testing.T) {
	s := &Scheduler{opts: Options{
		ReprofileEvery: 2,
		Decision:       DecisionPolicy{TableTTL: time.Hour, MinConfidence: 3},
	}}
	fresh := time.Now()
	for _, c := range []struct {
		name          string
		rec           record
		ok            bool
		profile, fast bool
	}{
		{"unknown", record{}, false, true, false},
		{"present but never profiled", record{invocations: 2}, true, true, false},
		{"reprofile flag", record{profiled: true, reprofile: true, invocations: 5, updatedAt: fresh}, true, true, false},
		{"ttl stale", record{profiled: true, invocations: 2, updatedAt: fresh.Add(-2 * time.Hour)}, true, true, false},
		{"periodic due, confident and fresh", record{profiled: true, invocations: 3, updatedAt: fresh}, true, false, true},
		{"periodic due, not confident", record{profiled: true, invocations: 1, updatedAt: fresh}, true, true, false},
		{"not due", record{profiled: true, invocations: 2, updatedAt: fresh}, true, false, false},
	} {
		profile, fast := s.profileDue(c.rec, c.ok)
		if profile != c.profile || fast != c.fast {
			t.Errorf("%s: profileDue = (%v, %v), want (%v, %v)", c.name, profile, fast, c.profile, c.fast)
		}
	}
}

func TestParallelForValidation(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{})
	if _, err := s.ParallelFor(compKernel(), 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := s.ParallelFor(engine.Kernel{Name: "nocost"}, 10000); err == nil {
		t.Error("invalid kernel cost accepted")
	}
}

func TestProfileShareRespected(t *testing.T) {
	// Profiling may consume at most half of the iterations (the
	// paper's profileShare); the rest remains for the final split.
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	const n = 4e6
	rep, err := s.ParallelFor(memKernel(), n)
	if err != nil {
		t.Fatal(err)
	}
	profiledItems := 0.0
	_ = profiledItems
	if rep.ProfileSteps < 2 {
		t.Errorf("size-based profiling should take multiple steps, got %d", rep.ProfileSteps)
	}
}

// equivRow is one configuration checked by assertSerialEquivalence.
type equivRow struct {
	name string
	opts Options
	ctx  context.Context
}

// equivStep is one invocation of assertSerialEquivalence's script.
type equivStep struct {
	k     engine.Kernel
	n     int
	busy  int  // GPU-busy dispatches scripted just before the invocation
	owned bool // GPU owned by another application (the up-front check)
}

// equivScript crosses, on two kernels, every path a serial caller
// reaches with the robustness knobs off: first profiles, small N, a
// periodic re-profile (ReprofileEvery 2) that a busy GPU cuts short,
// the re-profile that follows, table replays, a replay whose remainder
// exhausts the retry budget, and an up-front GPU-busy run. Each kernel
// records three invocations, one short of the second periodic
// re-profile, where a confident record would take the fast path.
func equivScript() []equivStep {
	comp, mem := compKernel(), memKernel()
	return []equivStep{
		{k: comp, n: 200000},          // 0: first profile
		{k: mem, n: 1e6},              // 1: first profile
		{k: comp, n: 100},             // 2: small N, CPU alone
		{k: comp, n: 2e6, busy: 3},    // 3: re-profile falls back mid-profile
		{k: comp, n: 2e6},             // 4: the re-profile, ordinal 2
		{k: mem, n: 5e5},              // 5: re-profile, ordinal 2
		{k: comp, n: 200000, busy: 3}, // 6: replay falls back mid-execute
		{k: mem, n: 2e6, owned: true}, // 7: GPU owned up front
		{k: comp, n: 1e6},             // 8: replay, ordinal 3
		{k: mem, n: 1e6},              // 9: replay, ordinal 3
	}
}

// assertSerialEquivalence is the invariant behind every policy group's
// zero value: a knob that only reorders, delays, deduplicates or
// persists decisions must not change what a serial caller computes.
// Under equivScript each row's reports must equal the zero config's,
// field for field. Every run, the zero config included, re-profiles
// every second invocation with growing profile chunks.
func assertSerialEquivalence(t *testing.T, rows []equivRow) {
	t.Helper()
	run := func(t *testing.T, opts Options, ctx context.Context) []Report {
		opts.ReprofileEvery = 2
		opts.GrowProfileChunk = true
		s, plan := newFaultyEAS(t, opts)
		defer s.Close()
		var reps []Report
		for i, st := range equivScript() {
			plan.Script(faultinject.GPUBusy, st.busy, 0)
			s.eng.Platform().SetGPUBusy(st.owned)
			rep, err := s.ParallelForCtx(ctx, st.k, st.n)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	want := run(t, Options{}, context.Background())
	// Pin that the script still reaches what it claims to: a busy
	// invocation exhausts its three attempts and runs CPU-only.
	for _, c := range []struct {
		step int
		ok   bool
	}{
		{0, want[0].Profiled && want[1].Profiled},
		{2, !want[2].Profiled && !want[2].CatKnown && want[2].GPUItems == 0},
		{3, want[3].GPUBusyFallback && want[3].Retries == 3 && want[3].ProfileSteps == 0},
		{4, want[4].Profiled && want[5].Profiled},
		{6, want[6].GPUBusyFallback && want[6].Retries == 3 && want[6].CatKnown && !want[6].Profiled},
		{7, want[7].GPUBusyFallback && want[7].Retries == 0 && !want[7].CatKnown},
		{8, !want[8].Profiled && want[8].CatKnown && want[8].Alpha > 0 && !want[9].Profiled},
	} {
		if !c.ok {
			t.Fatalf("script step %d no longer takes its path: %+v", c.step, want[c.step])
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := run(t, row.opts, row.ctx); !reflect.DeepEqual(got, want) {
				t.Errorf("serial reports diverge from the zero config:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// Persisting the α table is write-behind only: a scheduler with a state
// file computes what one without it does, whatever its sync mode.
func TestSerialDecisionEquivalence(t *testing.T) {
	assertSerialEquivalence(t, []equivRow{
		{"state", Options{State: StatePolicy{Path: filepath.Join(t.TempDir(), "alpha.state")}}, context.Background()},
		{"state-sync-always", Options{State: StatePolicy{Path: filepath.Join(t.TempDir(), "alpha.state"), Sync: statestore.SyncAlways}}, context.Background()},
	})
}

func TestMetricAccessor(t *testing.T) {
	s := newEAS(t, metrics.ED2P, Options{})
	if s.Metric().Name() != "ed2p" {
		t.Errorf("Metric = %v", s.Metric())
	}
}

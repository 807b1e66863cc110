package eas

import (
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	platforminternal "github.com/hetsched/eas/internal/platform"
)

var (
	modelOnce    sync.Once
	desktopModel *PowerModel
	modelErr     error
)

func sharedModel(t *testing.T) *PowerModel {
	t.Helper()
	modelOnce.Do(func() {
		desktopModel, modelErr = Characterize(DesktopPlatform())
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return desktopModel
}

func newRuntime(t *testing.T, metric Metric) *Runtime {
	t.Helper()
	rt, err := NewRuntime(DesktopPlatform(), Config{Metric: metric, Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func memKernel(body func(int)) Kernel {
	return Kernel{
		Name:          "public-mem",
		MemOpsPerItem: 100, L3MissRatio: 0.6, InstructionsPerItem: 500,
		Body: body,
	}
}

func TestQuickstartFlow(t *testing.T) {
	rt := newRuntime(t, EDP)
	out := make([]float64, 200000)
	rep, err := rt.ParallelFor(Kernel{
		Name:         "scale",
		FLOPsPerItem: 2, MemOpsPerItem: 2, L3MissRatio: 0.1, InstructionsPerItem: 8,
		Body: func(i int) { out[i] = 2 * float64(i) },
	}, len(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 || rep.EnergyJ <= 0 || rep.MetricValue <= 0 {
		t.Errorf("report missing measurements: %+v", rep)
	}
	if rep.CPUItems+rep.GPUItems < float64(len(out))-1 {
		t.Errorf("work not conserved: %v + %v", rep.CPUItems, rep.GPUItems)
	}
	// Functional execution must have really happened.
	for _, i := range []int{0, 12345, len(out) - 1} {
		if out[i] != 2*float64(i) {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], 2*float64(i))
		}
	}
}

func TestFunctionalSplitCoversAllIndices(t *testing.T) {
	rt := newRuntime(t, Energy)
	const n = 300000
	hits := make([]int32, n)
	rep, err := rt.ParallelFor(memKernel(func(i int) {
		hits[i]++ // distinct indices; no race on same index
	}), n)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times (alpha=%v)", i, h, rep.Alpha)
		}
	}
	if rep.Alpha > 0 && rep.GPUItems == 0 {
		t.Error("positive alpha but no GPU items")
	}
}

func TestMetricSelectionChangesAlpha(t *testing.T) {
	// Energy should pick a GPU-heavier split than pure performance on
	// a compute-bound kernel (the desktop GPU is the efficient device).
	comp := Kernel{Name: "comp", FLOPsPerItem: 20000, MemOpsPerItem: 20,
		L3MissRatio: 0.02, InstructionsPerItem: 3000}
	energyRT := newRuntime(t, Energy)
	repE, err := energyRT.ParallelFor(comp, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if repE.Alpha < 0.8 {
		t.Errorf("energy alpha = %v, want GPU-heavy (≥0.8)", repE.Alpha)
	}
	if a, ok := energyRT.Alpha("comp"); !ok || math.Abs(a-repE.Alpha) > 0.2 {
		t.Errorf("Alpha() = %v,%v inconsistent with report %v", a, ok, repE.Alpha)
	}
}

func TestDefaultMetricIsEDP(t *testing.T) {
	rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Metric().Name() != "edp" {
		t.Errorf("default metric = %q, want edp", rt.Metric().Name())
	}
}

func TestGPUBusyFallbackPublic(t *testing.T) {
	p := DesktopPlatform()
	rt, err := NewRuntime(p, Config{Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	p.SetGPUBusy(true)
	rep, err := rt.ParallelFor(memKernel(nil), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GPUBusyFallback || rep.GPUItems != 0 {
		t.Errorf("busy GPU should force CPU-only: %+v", rep)
	}
}

func TestModelPlatformMismatch(t *testing.T) {
	if _, err := NewRuntime(TabletPlatform(), Config{Model: sharedModel(t)}); err == nil {
		t.Error("desktop model on tablet platform accepted")
	}
}

func TestNewRuntimeRejectsNaNAlphaStep(t *testing.T) {
	_, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t), AlphaStep: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "AlphaStep") {
		t.Errorf("NewRuntime with a NaN AlphaStep: err = %v, want one naming AlphaStep", err)
	}
}

func TestParallelForValidationPublic(t *testing.T) {
	rt := newRuntime(t, EDP)
	if _, err := rt.ParallelFor(memKernel(nil), 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := rt.ParallelFor(Kernel{Name: "empty"}, 100); err == nil {
		t.Error("costless kernel accepted")
	}
}

func TestPowerModelPersistence(t *testing.T) {
	m := sharedModel(t)
	path := filepath.Join(t.TempDir(), "desktop.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPowerModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PlatformName() != "desktop" {
		t.Errorf("loaded platform = %q", loaded.PlatformName())
	}
	if len(loaded.Categories()) != 8 {
		t.Errorf("loaded categories = %d, want 8", len(loaded.Categories()))
	}
	// The model predicts sensible desktop powers.
	w, err := loaded.Power("comp-cpuL-gpuL", 0)
	if err != nil {
		t.Fatal(err)
	}
	if w < 40 || w > 50 {
		t.Errorf("P(0) = %v, want ≈45 W", w)
	}
	if _, err := loaded.Power("quantum", 0.5); err == nil {
		t.Error("unknown category accepted")
	}
	s, err := loaded.CurveString("comp-cpuL-gpuL")
	if err != nil || s == "" {
		t.Errorf("CurveString: %q, %v", s, err)
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"desktop", "tablet"} {
		p, err := PlatformByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PlatformByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PlatformByName("mainframe"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestCustomMetric(t *testing.T) {
	// A user-defined metric is accepted end-to-end (paper: "any
	// user-defined energy-related metric").
	batt := NewMetric("battery", func(p, t float64) float64 { return p * p * t })
	rt, err := NewRuntime(DesktopPlatform(), Config{Metric: batt, Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.ParallelFor(memKernel(nil), 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MetricValue <= 0 {
		t.Error("custom metric not evaluated")
	}
	if MetricByNameMust(t, "ed2p").Name() != "ed2p" {
		t.Error("ED2P lookup failed")
	}
}

func MetricByNameMust(t *testing.T, name string) Metric {
	t.Helper()
	m, err := MetricByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCreateBufferLimit(t *testing.T) {
	tabletModel, err := Characterize(TabletPlatform())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(TabletPlatform(), Config{Model: tabletModel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateBuffer("big", 300<<20); err == nil {
		t.Error("tablet should reject 300MB shared buffer")
	}
	b, err := rt.CreateBuffer("ok", 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricEval(t *testing.T) {
	if got := EDP.Eval(50, 2); got != 200 {
		t.Errorf("EDP.Eval = %v, want 200", got)
	}
	if Energy.Name() != "energy" {
		t.Error("Energy name wrong")
	}
}

func TestLoadPlatformPublic(t *testing.T) {
	// Round-trip a preset spec through the public loader.
	path := filepath.Join(t.TempDir(), "spec.json")
	spec, _ := platforminternal.Presets("tablet")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "tablet" {
		t.Errorf("loaded platform name = %q", p.Name())
	}
	if p.GPUProfileSize() != 448 {
		t.Errorf("loaded platform GPU profile size = %d", p.GPUProfileSize())
	}
	if _, err := LoadPlatform(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestPredictWhatIf(t *testing.T) {
	m := sharedModel(t)
	preds, err := m.Predict("mem-cpuL-gpuL", 7.5e6, 14e6, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 11 {
		t.Fatalf("predictions = %d, want 11", len(preds))
	}
	if preds[0].Alpha != 0 || preds[10].Alpha != 1 {
		t.Error("grid endpoints wrong")
	}
	// Endpoint times are n/RC and n/RG.
	if math.Abs(preds[0].Seconds-50e6/7.5e6) > 1e-6 {
		t.Errorf("T(0) = %v, want %v", preds[0].Seconds, 50e6/7.5e6)
	}
	if math.Abs(preds[10].Seconds-50e6/14e6) > 1e-6 {
		t.Errorf("T(1) = %v, want %v", preds[10].Seconds, 50e6/14e6)
	}
	// Consistency: EDP = E×T, and the best perf point beats endpoints.
	bestT := preds[0].Seconds
	for _, p := range preds {
		if math.Abs(p.EDP-p.EnergyJ*p.Seconds) > 1e-9*p.EDP {
			t.Errorf("EDP inconsistent at α=%v", p.Alpha)
		}
		if p.Seconds < bestT {
			bestT = p.Seconds
		}
	}
	if bestT >= preds[0].Seconds || bestT >= preds[10].Seconds {
		t.Error("an interior split should be faster than either device alone")
	}
	// Validation.
	if _, err := m.Predict("warp", 1, 1, 1); err == nil {
		t.Error("unknown category accepted")
	}
	if _, err := m.Predict("mem-cpuL-gpuL", 0, 0, 1); err == nil {
		t.Error("no measurable devices accepted")
	}
	if _, err := m.Predict("mem-cpuL-gpuL", 1, 1, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestReportDomainEnergies(t *testing.T) {
	rt := newRuntime(t, EDP)
	rep, err := rt.ParallelFor(memKernel(nil), 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPUEnergyJ <= 0 || rep.GPUEnergyJ <= 0 || rep.DRAMEnergyJ <= 0 {
		t.Errorf("domain energies should be positive: %+v", rep)
	}
	domains := rep.CPUEnergyJ + rep.GPUEnergyJ + rep.DRAMEnergyJ
	if domains >= rep.EnergyJ {
		t.Errorf("domains %v should leave room for the idle floor below package %v", domains, rep.EnergyJ)
	}
	// Memory-bound work on the desktop: the DRAM domain dominates the GPU domain.
	if rep.DRAMEnergyJ <= rep.GPUEnergyJ {
		t.Errorf("memory-bound run: DRAM %v should exceed GPU %v", rep.DRAMEnergyJ, rep.GPUEnergyJ)
	}
}

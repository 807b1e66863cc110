// Package platform assembles the simulated integrated CPU-GPU
// processors the evaluation runs on: device timing models, the PCU
// power-management black box, the package-energy MSR, and the CPU
// hardware counters. Two presets mirror the paper's machines — a
// Haswell-class desktop (Core i7-4770 + HD Graphics 4600) and a
// Bay Trail-class tablet (Atom Z3740) — with power and performance
// anchors calibrated to the figures the paper reports.
package platform

import (
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/hwc"
	"github.com/hetsched/eas/internal/msr"
	"github.com/hetsched/eas/internal/pcu"
	"github.com/hetsched/eas/internal/simclock"
)

// Spec fully describes a platform. Users may build custom platforms by
// filling a Spec and calling New; the presets return ready instances.
type Spec struct {
	// Name identifies the platform in reports ("desktop", "tablet").
	Name string

	CPU    device.CPUParams
	GPU    device.GPUParams
	Memory device.MemoryParams

	Policy pcu.Policy
	Power  pcu.PowerModel

	// Tick is the maximum simulation step (events may shorten steps).
	Tick time.Duration
	// MSRUnitJoules is the package-energy counter granularity.
	MSRUnitJoules float64
	// SharedMemLimitBytes caps the CPU-GPU shared buffer region (the
	// tablet's OpenCL driver limits it to 250 MB); zero means no limit.
	SharedMemLimitBytes int64
	// LLCBytes is the last-level cache size, used to derive miss
	// ratios from kernel working sets (8 MB on the desktop's i7-4770,
	// 2 MB on the tablet's Z3740).
	LLCBytes int64
	// ProxyCoreFraction is the fraction of one CPU core consumed by
	// the GPU proxy thread while a kernel is in flight on the GPU.
	ProxyCoreFraction float64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("platform: spec needs a name")
	}
	if err := s.CPU.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", s.Name, err)
	}
	if err := s.GPU.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", s.Name, err)
	}
	if err := s.Memory.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", s.Name, err)
	}
	if err := s.Policy.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", s.Name, err)
	}
	if err := s.Power.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", s.Name, err)
	}
	if s.Tick <= 0 {
		return fmt.Errorf("platform %s: non-positive tick %v", s.Name, s.Tick)
	}
	if s.MSRUnitJoules <= 0 {
		return fmt.Errorf("platform %s: non-positive MSR unit %v", s.Name, s.MSRUnitJoules)
	}
	if s.SharedMemLimitBytes < 0 {
		return fmt.Errorf("platform %s: negative shared-memory limit", s.Name)
	}
	if s.LLCBytes <= 0 {
		return fmt.Errorf("platform %s: LLC size must be positive, got %d", s.Name, s.LLCBytes)
	}
	if s.ProxyCoreFraction < 0 || s.ProxyCoreFraction >= 1 {
		return fmt.Errorf("platform %s: proxy core fraction %v outside [0,1)", s.Name, s.ProxyCoreFraction)
	}
	return nil
}

// Platform is an instantiated simulated processor. It is not safe for
// concurrent use: one engine drives it at a time, and concurrent
// tenants are serialized above it by core.Scheduler's admission gate.
// Do not share one Platform between runtimes that run concurrently.
type Platform struct {
	spec  Spec
	Clock *simclock.Clock
	PCU   *pcu.PCU
	// MSR is MSR_PKG_ENERGY_STATUS — the counter the paper's runtime
	// samples. MSRPP0/MSRPP1/MSRDRAM are the per-domain RAPL counters
	// real parts also expose (CPU cores, integrated GPU, memory).
	MSR     *msr.PackageEnergyStatus
	MSRPP0  *msr.PackageEnergyStatus
	MSRPP1  *msr.PackageEnergyStatus
	MSRDRAM *msr.PackageEnergyStatus
	HWC     *hwc.Monitor

	gpuExternallyBusy bool
}

// New builds a platform from a spec.
func New(spec Spec) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		spec:  spec,
		Clock: simclock.New(spec.Tick),
		PCU:   pcu.New(spec.Policy, spec.Power),
		HWC:   &hwc.Monitor{},
	}
	p.MSR = msr.New(p.PCU, spec.MSRUnitJoules)
	p.MSRPP0 = msr.New(msr.EnergyFunc(p.PCU.CoreEnergy), spec.MSRUnitJoules)
	p.MSRPP1 = msr.New(msr.EnergyFunc(p.PCU.GPUEnergy), spec.MSRUnitJoules)
	p.MSRDRAM = msr.New(msr.EnergyFunc(p.PCU.DRAMEnergy), spec.MSRUnitJoules)
	return p, nil
}

// MustNew is New for program-constant specs; it panics on error.
func MustNew(spec Spec) *Platform {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// SetSensorFaults routes the platform's *sensors* through a fault
// plan: the package-energy MSR reads a wrapped (stuck / noisy /
// wrap-gapped) view of the PCU's true energy, and hardware-counter
// snapshots may drop or corrupt. Only observations degrade — the PCU,
// clock, and true counter state stay exact, as on real hardware where
// a flaky RAPL interface does not change the power actually drawn.
// The per-domain RAPL counters (PP0/PP1/DRAM) stay clean: they are
// diagnostics, not decision inputs.
//
// Call before handing the platform to consumers that capture the MSR
// pointer (engines, robust meters); a nil plan is a no-op.
func (p *Platform) SetSensorFaults(plan *faultinject.Plan) {
	if plan == nil {
		return
	}
	p.MSR = msr.New(msr.EnergyFunc(plan.WrapEnergy(p.PCU.TotalEnergy)), p.spec.MSRUnitJoules)
	p.HWC.SetFaultPlan(plan)
}

// Spec returns a copy of the platform's specification.
func (p *Platform) Spec() Spec { return p.spec }

// SpecRef returns the platform's specification by reference, for hot
// paths that read it on every call: a Spec is a few hundred bytes, and
// nothing changes it after New. Callers must not modify it.
func (p *Platform) SpecRef() *Spec { return &p.spec }

// Name returns the platform name.
func (p *Platform) Name() string { return p.spec.Name }

// Reset restores boot state: clock to zero, PCU transients cleared,
// counters zeroed. Energy history is discarded.
func (p *Platform) Reset() {
	p.Clock.Reset()
	p.PCU.Reset()
	p.HWC.Reset()
	p.gpuExternallyBusy = false
}

// Snapshot captures the platform's complete mutable state (clock, PCU,
// counters, GPU-busy flag) for rollback-based what-if analyses.
type Snapshot struct {
	now      time.Duration
	pcu      pcu.State
	counters hwc.Counters
	gpuBusy  bool
}

// Snapshot captures the platform state. It reads the true counter
// state (HWC.Raw), not the possibly fault-degraded reading — rollback
// must restore reality, not a corrupted observation.
func (p *Platform) Snapshot() Snapshot {
	return Snapshot{
		now:      p.Clock.Now(),
		pcu:      p.PCU.Snapshot(),
		counters: p.HWC.Raw(),
		gpuBusy:  p.gpuExternallyBusy,
	}
}

// Restore rolls the platform back to a snapshot taken on this instance.
func (p *Platform) Restore(s Snapshot) {
	p.Clock.Restore(s.now)
	p.PCU.Restore(s.pcu)
	p.HWC.Restore(s.counters)
	p.gpuExternallyBusy = s.gpuBusy
}

// GPUProfileSize returns the number of items the online profiler
// offloads to fill the GPU — the paper's GPU_PROFILE_SIZE, which must
// match the GPU's hardware parallelism (2240 on the desktop).
func (p *Platform) GPUProfileSize() int {
	return p.spec.GPU.HardwareParallelism()
}

// GPUBusy reports whether another application currently owns the GPU
// (the paper checks GPU performance counter A26 for this; the runtime
// falls back to CPU-only execution when it is set).
func (p *Platform) GPUBusy() bool { return p.gpuExternallyBusy }

// SetGPUBusy marks the GPU as owned by an external application.
func (p *Platform) SetGPUBusy(busy bool) { p.gpuExternallyBusy = busy }

// CheckSharedAllocation returns an error if an allocation of the given
// total bytes would exceed the platform's CPU-GPU shared-region limit.
func (p *Platform) CheckSharedAllocation(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("platform %s: negative allocation", p.spec.Name)
	}
	if p.spec.SharedMemLimitBytes > 0 && bytes > p.spec.SharedMemLimitBytes {
		return fmt.Errorf("platform %s: allocation of %d bytes exceeds %d byte shared-region limit",
			p.spec.Name, bytes, p.spec.SharedMemLimitBytes)
	}
	return nil
}

// DesktopSpec returns the Haswell-class desktop configuration:
// a 3.4 GHz quad-core CPU (turbo 3.9 GHz) with an HD 4600-class GPU
// (20 EUs × 7 threads × SIMD-16, 0.35-1.2 GHz), 25.6 GB/s DDR3, an
// 84 W TDP, and a PCU that throttles the CPU for a reaction window when
// a GPU kernel starts from idle (the Fig. 4 behaviour).
func DesktopSpec() Spec {
	return Spec{
		Name: "desktop",
		CPU: device.CPUParams{
			Cores: 4, IPC: 2.5, FLOPsPerCycle: 8,
			BaseHz: 3.4e9, TurboHz: 3.9e9, MinHz: 0.8e9,
		},
		GPU: device.GPUParams{
			EUs: 20, ThreadsPerEU: 7, SIMDWidth: 16,
			IssueRate: 0.5, FLOPsPerCyclePerLane: 1.2,
			BaseHz: 0.35e9, TurboHz: 1.2e9,
			LaunchOverhead: 20 * time.Microsecond,
		},
		Memory: device.MemoryParams{
			BandwidthBytes: 25.6e9, CPUMaxShare: 0.55, GPUMaxShare: 0.7,
			GPUPriority: true,
		},
		Policy: pcu.Policy{
			CPUTurboHz: 3.9e9, CPUBaseHz: 3.4e9, CPUMinHz: 0.8e9,
			GPUTurboHz: 1.2e9, GPUBaseHz: 0.35e9,
			TDPW:               84,
			ThrottleOnGPUStart: true,
			ReactionWindow:     50 * time.Millisecond,
			IdleHysteresis:     50 * time.Millisecond,
			BudgetGain:         2,
			// Tower-cooled desktop: steady-state ≈35 + 0.5×65W ≈ 68°C,
			// comfortably below the 95°C throttle point.
			ThermalResistanceKPerW:  0.5,
			ThermalCapacitanceJPerK: 20,
			AmbientC:                35,
			ThrottleTempC:           95,
		},
		Power: pcu.PowerModel{
			IdleW:           12,
			CPUCoreComputeW: 8.25, CPUCoreStallW: 7.0, CPURefHz: 3.9e9, CPUFreqExp: 1.8,
			GPUComputeW: 18, GPUStallW: 4, GPURefHz: 1.2e9, GPUFreqExp: 1.8,
			DRAMWPerGBs: 1.05,
		},
		Tick:              time.Millisecond,
		MSRUnitJoules:     msr.DefaultUnitJoules,
		ProxyCoreFraction: 0.25,
		LLCBytes:          8 << 20,
	}
}

// TabletSpec returns the Bay Trail-class tablet configuration:
// a 1.33 GHz quad-core Atom (burst 1.86 GHz) with a 4-EU GPU
// (0.331-0.667 GHz), 8.5 GB/s LPDDR3, a tight 2.5 W package budget, no
// kernel-start throttle, and a 250 MB CPU-GPU shared-region limit. On
// this part the GPU draws *more* power than the CPU (Fig. 6).
func TabletSpec() Spec {
	return Spec{
		Name: "tablet",
		CPU: device.CPUParams{
			Cores: 4, IPC: 1.0, FLOPsPerCycle: 4,
			BaseHz: 1.33e9, TurboHz: 1.86e9, MinHz: 0.5e9,
		},
		GPU: device.GPUParams{
			EUs: 4, ThreadsPerEU: 7, SIMDWidth: 16,
			IssueRate: 0.5, FLOPsPerCyclePerLane: 1.3,
			BaseHz: 0.331e9, TurboHz: 0.667e9,
			LaunchOverhead: 60 * time.Microsecond,
		},
		Memory: device.MemoryParams{
			BandwidthBytes: 8.5e9, CPUMaxShare: 0.4, GPUMaxShare: 0.9,
			GPUPriority: true,
		},
		Policy: pcu.Policy{
			CPUTurboHz: 1.86e9, CPUBaseHz: 1.33e9, CPUMinHz: 0.5e9,
			GPUTurboHz: 0.667e9, GPUBaseHz: 0.331e9,
			TDPW:               2.5,
			ThrottleOnGPUStart: false,
			BudgetGain:         2,
			// Fanless tablet: high junction-to-ambient resistance, but
			// the 2.5 W budget keeps steady state ≈30 + 8×2.5 = 50°C,
			// below the 80°C skin-temperature-driven throttle.
			ThermalResistanceKPerW:  8,
			ThermalCapacitanceJPerK: 3,
			AmbientC:                30,
			ThrottleTempC:           80,
		},
		Power: pcu.PowerModel{
			IdleW:           0.25,
			CPUCoreComputeW: 0.31, CPUCoreStallW: 0.07, CPURefHz: 1.86e9, CPUFreqExp: 1.8,
			GPUComputeW: 1.7, GPUStallW: 0.81, GPURefHz: 0.667e9, GPUFreqExp: 1.8,
			DRAMWPerGBs: 0.04,
		},
		Tick:                time.Millisecond,
		MSRUnitJoules:       msr.DefaultUnitJoules,
		SharedMemLimitBytes: 250 << 20,
		ProxyCoreFraction:   0.25,
		LLCBytes:            2 << 20,
	}
}

// Desktop returns a fresh desktop platform instance.
func Desktop() *Platform { return MustNew(DesktopSpec()) }

// Tablet returns a fresh tablet platform instance.
func Tablet() *Platform { return MustNew(TabletSpec()) }

// Presets returns the named preset spec, or false if unknown.
func Presets(name string) (Spec, bool) {
	switch name {
	case "desktop":
		return DesktopSpec(), true
	case "tablet":
		return TabletSpec(), true
	}
	return Spec{}, false
}

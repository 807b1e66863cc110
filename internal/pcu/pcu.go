// Package pcu simulates the Package Control Unit of an integrated
// CPU-GPU processor: the firmware that sets device frequencies and, by
// doing so, determines package power. This is the component the paper
// treats as a black box — vendors neither document nor expose it — and
// characterizes purely by probing with micro-benchmarks.
//
// The simulated PCU reproduces the externally visible policies the
// paper observes on its two machines:
//
//   - Haswell desktop: the CPU turbos when it has the package to
//     itself, drops to base clock while the GPU is active (power-budget
//     sharing), and is throttled hard for a reaction window right after
//     a GPU kernel starts from idle — which is why short GPU bursts dip
//     package power from ~60 W to <40 W on memory-bound work (Fig. 4)
//     while long kernels settle to a steady combined power (Fig. 3).
//   - Bay Trail tablet: a tight package budget (SDP-class) forces
//     frequency scaling whenever both devices run; there is no
//     start-of-kernel throttle, and the GPU is the more power-hungry
//     device, so package power *drops* during CPU-only phases (Fig. 2).
//
// None of these details are visible to the scheduler under test; it
// only sees the resulting package energy through the emulated MSR.
package pcu

import (
	"fmt"
	"math"
	"time"

	"github.com/hetsched/eas/internal/device"
)

// Policy captures a processor's power-management strategy.
type Policy struct {
	// CPU DVFS points: turbo when alone, base when sharing, and the
	// deep-throttle floor used during reaction transients.
	CPUTurboHz, CPUBaseHz, CPUMinHz float64
	// GPU DVFS points: turbo while busy, base otherwise.
	GPUTurboHz, GPUBaseHz float64
	// TDPW is the sustained package power budget the PCU regulates to.
	TDPW float64
	// ThrottleOnGPUStart enables the Haswell-style transient: when a
	// GPU kernel starts after the GPU has been idle for at least
	// IdleHysteresis, the CPU is pinned at CPUMinHz for ReactionWindow.
	ThrottleOnGPUStart bool
	ReactionWindow     time.Duration
	IdleHysteresis     time.Duration
	// BudgetGain is the integral gain of the TDP controller in
	// 1/second: how fast the frequency scale reacts to budget error.
	BudgetGain float64
	// Thermal model (the PCU monitors die temperature, paper §1): a
	// first-order RC from package power to die temperature. Zero
	// ThermalResistance disables the model.
	//
	// ThermalResistanceKPerW is junction-to-ambient in kelvin/watt;
	// ThermalCapacitanceJPerK the die+spreader heat capacity;
	// AmbientC the ambient temperature; ThrottleTempC the junction
	// temperature above which the PCU forces the frequency scale down
	// regardless of the power budget.
	ThermalResistanceKPerW  float64
	ThermalCapacitanceJPerK float64
	AmbientC                float64
	ThrottleTempC           float64
}

// Validate reports whether the policy is self-consistent.
func (p Policy) Validate() error {
	switch {
	case p.CPUMinHz <= 0 || p.CPUBaseHz < p.CPUMinHz || p.CPUTurboHz < p.CPUBaseHz:
		return fmt.Errorf("pcu: CPU DVFS points out of order (min=%v base=%v turbo=%v)", p.CPUMinHz, p.CPUBaseHz, p.CPUTurboHz)
	case p.GPUBaseHz <= 0 || p.GPUTurboHz < p.GPUBaseHz:
		return fmt.Errorf("pcu: GPU DVFS points out of order (base=%v turbo=%v)", p.GPUBaseHz, p.GPUTurboHz)
	case p.TDPW <= 0:
		return fmt.Errorf("pcu: TDP must be positive, got %v", p.TDPW)
	case p.ThrottleOnGPUStart && (p.ReactionWindow <= 0 || p.IdleHysteresis < 0):
		return fmt.Errorf("pcu: throttle policy needs a positive reaction window")
	case p.BudgetGain <= 0:
		return fmt.Errorf("pcu: budget gain must be positive, got %v", p.BudgetGain)
	}
	if p.ThermalResistanceKPerW > 0 {
		if p.ThermalCapacitanceJPerK <= 0 {
			return fmt.Errorf("pcu: thermal model needs a positive capacitance, got %v", p.ThermalCapacitanceJPerK)
		}
		if p.ThrottleTempC <= p.AmbientC {
			return fmt.Errorf("pcu: throttle temperature %v must exceed ambient %v", p.ThrottleTempC, p.AmbientC)
		}
	}
	return nil
}

// PowerModel converts device activity into package power.
type PowerModel struct {
	// IdleW is the floor: uncore, ring, idle LLC.
	IdleW float64
	// Per-CPU-core power at CPURefHz for fully compute-bound and fully
	// memory-stalled operation; actual core power blends by MemShare
	// and scales with (f/ref)^CPUFreqExp.
	CPUCoreComputeW, CPUCoreStallW, CPURefHz, CPUFreqExp float64
	// Whole-GPU power at GPURefHz, same blend/scale treatment.
	GPUComputeW, GPUStallW, GPURefHz, GPUFreqExp float64
	// DRAMWPerGBs is the memory-subsystem power per GB/s of achieved
	// traffic — what makes memory-bound workloads draw more package
	// power than compute-bound ones on the desktop.
	DRAMWPerGBs float64
}

// Validate reports whether the model is physically meaningful.
func (m PowerModel) Validate() error {
	switch {
	case m.IdleW < 0:
		return fmt.Errorf("pcu: negative idle power %v", m.IdleW)
	case m.CPUCoreComputeW <= 0 || m.CPUCoreStallW <= 0 || m.GPUComputeW <= 0 || m.GPUStallW <= 0:
		return fmt.Errorf("pcu: device power coefficients must be positive")
	case m.CPURefHz <= 0 || m.GPURefHz <= 0:
		return fmt.Errorf("pcu: reference frequencies must be positive")
	case m.CPUFreqExp < 1 || m.CPUFreqExp > 3 || m.GPUFreqExp < 1 || m.GPUFreqExp > 3:
		return fmt.Errorf("pcu: frequency exponents should lie in [1,3]")
	case m.DRAMWPerGBs < 0:
		return fmt.Errorf("pcu: negative DRAM power coefficient")
	}
	return nil
}

// Breakdown is the package power decomposition for one tick.
type Breakdown struct {
	Idle, CPU, GPU, DRAM float64
}

// Total returns the package power in watts.
func (b Breakdown) Total() float64 { return b.Idle + b.CPU + b.GPU + b.DRAM }

// Package computes the power breakdown for the given device loads.
func (m PowerModel) Package(cpu, gpu device.Load) Breakdown {
	return m.breakdown(cpu, gpu, nil, nil)
}

// breakdown is Package with optional per-device frequency-scale memos
// (nil computes the scale afresh).
func (m *PowerModel) breakdown(cpu, gpu device.Load, cpuScale, gpuScale *scaleMemo) Breakdown {
	var b Breakdown
	b.Idle = m.IdleW
	if cpu.ActiveCores > 0 && cpu.Hz > 0 {
		perCore := blend(m.CPUCoreComputeW, m.CPUCoreStallW, cpu.MemShare)
		b.CPU = cpu.ActiveCores * perCore * cpuScale.freqScale(cpu.Hz, m.CPURefHz, m.CPUFreqExp) * clamp01(cpu.Active)
	}
	if gpu.Active > 0 && gpu.Hz > 0 {
		w := blend(m.GPUComputeW, m.GPUStallW, gpu.MemShare)
		b.GPU = w * gpuScale.freqScale(gpu.Hz, m.GPURefHz, m.GPUFreqExp) * clamp01(gpu.Active)
	}
	b.DRAM = m.DRAMWPerGBs * (cpu.MemBytesPerSec + gpu.MemBytesPerSec) / 1e9
	return b
}

// scaleMemo holds one device's last freqScale result. The PCU's
// frequencies change only at DVFS and budget-scale steps, so most
// ticks repeat the previous Hz; reusing the result skips a math.Pow
// per device per tick. The key is the exact Hz and the memo belongs
// to one PowerModel (fixed ref and exponent), so a hit returns the
// bits a fresh call would. Callers pass Hz > 0, so the zero value's
// key never matches.
type scaleMemo struct {
	hz, scale float64
}

func (s *scaleMemo) freqScale(hz, ref, exp float64) float64 {
	if s == nil {
		return freqScale(hz, ref, exp)
	}
	if s.hz != hz {
		s.hz, s.scale = hz, freqScale(hz, ref, exp)
	}
	return s.scale
}

func blend(computeW, stallW, memShare float64) float64 {
	s := clamp01(memShare)
	return computeW*(1-s) + stallW*s
}

func freqScale(hz, ref, exp float64) float64 {
	if ref <= 0 {
		return 1
	}
	return pow(hz/ref, exp)
}

// pow is a positive-base power function with fast paths for the common
// integer exponents.
func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	switch e {
	case 1:
		return x
	case 2:
		return x * x
	case 3:
		return x * x * x
	}
	return math.Pow(x, e)
}

// PCU is the stateful power-management unit. Not safe for concurrent
// use; the engine drives it from a single simulation goroutine.
type PCU struct {
	policy Policy
	model  PowerModel

	budgetScale      float64       // multiplier on DVFS points, regulated to TDP
	powerEWMA        float64       // smoothed package power for the controller
	throttleRemain   time.Duration // Haswell reaction transient countdown
	gpuIdleFor       time.Duration // time since GPU last busy
	gpuEverObserved  bool
	cpuMemShareEWMA  float64 // smoothed CPU memory-stall share
	tempC            float64 // die temperature (thermal model)
	lastBreakdown    Breakdown
	totalEnergyJ     float64
	coreEnergyJ      float64 // PP0 domain (CPU cores)
	gpuEnergyJ       float64 // PP1 domain (integrated GPU)
	dramEnergyJ      float64 // DRAM domain
	simulatedSeconds float64

	// Memos of pure functions of the model; not part of State, since
	// a hit is bit-identical to a recomputation whatever the state.
	cpuScale, gpuScale scaleMemo
	loads              loadMemo
	dtMemo             dtCoeffs
}

// loadMemo holds the breakdown of the last busy load pair Observe saw.
// The engine reports the same pair on every step its operating point
// repeats, and the power model is fixed for the PCU's life, so a hit
// on the exact pair returns the bits a fresh breakdown would (the
// engine's loads are built from non-negative rates, so no -0 meets a
// +0 key). New NaN-initializes the key, so the first busy tick
// computes.
type loadMemo struct {
	cpu, gpu device.Load
	b        Breakdown
}

// breakdown is the model's breakdown through the PCU's memos. All-zero
// loads (the engine's idle ticks between phases) are not stored: they
// cost two skipped branches, and keeping them out leaves the last busy
// pair in place for the next phase.
func (p *PCU) breakdown(cpu, gpu device.Load) Breakdown {
	if cpu == p.loads.cpu && gpu == p.loads.gpu {
		return p.loads.b
	}
	b := p.model.breakdown(cpu, gpu, &p.cpuScale, &p.gpuScale)
	if cpu != (device.Load{}) || gpu != (device.Load{}) {
		// Field by field: a composite literal would copy the whole
		// memo through a temporary.
		p.loads.cpu, p.loads.gpu, p.loads.b = cpu, gpu, b
	}
	return b
}

// Time constants of Observe's two EWMAs, in seconds.
const (
	shareTau = 0.02 // CPU memory-stall share (the reaction-window gate)
	ewmaTau  = 0.05 // package power (the TDP controller's input)
)

// dtCoeffs are Observe's coefficients derived from the step length
// alone. Most steps are one platform tick, so Observe keeps
// the last step's set, keyed on the exact dt. The zero value is the
// correct entry for dt = 0, so it needs no initialization.
type dtCoeffs struct {
	dt          time.Duration
	dts         float64 // dt in seconds
	share, ewma float64 // dts/(tau+dts) for each EWMA
}

func newDTCoeffs(dt time.Duration) dtCoeffs {
	dts := dt.Seconds()
	return dtCoeffs{dt: dt, dts: dts, share: dts / (shareTau + dts), ewma: dts / (ewmaTau + dts)}
}

// New constructs a PCU. It panics on invalid configuration: platform
// presets are program constants, so a bad one is a programming error.
func New(policy Policy, model PowerModel) *PCU {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	if err := model.Validate(); err != nil {
		panic(err)
	}
	p := &PCU{policy: policy, model: model}
	p.loads.cpu.Hz = math.NaN()
	p.Reset()
	return p
}

// Reset restores boot state (full budget scale, no transients).
func (p *PCU) Reset() {
	p.budgetScale = 1
	p.powerEWMA = p.model.IdleW
	p.throttleRemain = 0
	p.gpuIdleFor = p.policy.IdleHysteresis // cold GPU counts as long-idle
	p.gpuEverObserved = false
	p.cpuMemShareEWMA = 0 // assume compute-bound until observed otherwise
	p.tempC = p.policy.AmbientC
	p.lastBreakdown = Breakdown{Idle: p.model.IdleW}
	p.totalEnergyJ = 0
	p.coreEnergyJ = 0
	p.gpuEnergyJ = 0
	p.dramEnergyJ = 0
	p.simulatedSeconds = 0
}

// Policy returns the configured policy (read-only copy).
func (p *PCU) Policy() Policy { return p.policy }

// Model returns the configured power model (read-only copy).
func (p *PCU) Model() PowerModel { return p.model }

// NoteGPUKernelStart informs the PCU that a kernel was enqueued to the
// GPU. On throttling policies this arms the reaction transient if the
// GPU has been idle long enough (hysteresis keeps back-to-back kernel
// invocations from re-triggering it).
func (p *PCU) NoteGPUKernelStart() {
	if !p.policy.ThrottleOnGPUStart {
		return
	}
	if p.gpuIdleFor >= p.policy.IdleHysteresis {
		p.throttleRemain = p.policy.ReactionWindow
	}
}

// Frequencies returns the operating frequencies for the next tick given
// which devices have work.
func (p *PCU) Frequencies(cpuBusy, gpuBusy bool) (cpuHz, gpuHz float64) {
	switch {
	case p.throttleRemain > 0 && gpuBusy && p.cpuMemShareEWMA > 0.5:
		// The reaction transient only bites when the CPU cores are
		// mostly stalled on memory: throttling stalled cores frees
		// budget for the GPU at almost no throughput cost (the Fig. 4
		// behaviour). Compute-bound cores keep their clocks.
		cpuHz = p.policy.CPUMinHz
	case gpuBusy:
		cpuHz = p.policy.CPUBaseHz
	default:
		cpuHz = p.policy.CPUTurboHz
	}
	if gpuBusy {
		gpuHz = p.policy.GPUTurboHz
	} else {
		gpuHz = p.policy.GPUBaseHz
	}
	// The TDP controller scales both devices back, but never below the
	// architectural floors.
	cpuHz = maxf(p.policy.CPUMinHz, cpuHz*p.budgetScale)
	gpuHz = maxf(p.policy.GPUBaseHz, gpuHz*p.budgetScale)
	if !cpuBusy {
		// An idle CPU still reports a frequency; power comes out zero
		// because ActiveCores is zero.
		cpuHz = p.policy.CPUBaseHz
	}
	return cpuHz, gpuHz
}

// Observe closes the loop for one tick: the engine reports the device
// loads it realized at the frequencies Frequencies returned, and the
// PCU integrates power, advances transient timers, and updates the TDP
// controller. It returns the package power breakdown for the tick.
func (p *PCU) Observe(cpu, gpu device.Load, dt time.Duration) Breakdown {
	b := p.breakdown(cpu, gpu)
	w := b.Total()
	if dt != p.dtMemo.dt {
		p.dtMemo = newDTCoeffs(dt)
	}
	dts := p.dtMemo.dts

	p.totalEnergyJ += w * dts
	p.coreEnergyJ += b.CPU * dts
	p.gpuEnergyJ += b.GPU * dts
	p.dramEnergyJ += b.DRAM * dts
	p.simulatedSeconds += dts
	p.lastBreakdown = b

	// Track how memory-stalled the CPU's work is (drives the reaction
	// transient's gate).
	if cpu.ActiveCores > 0 {
		p.cpuMemShareEWMA += p.dtMemo.share * (cpu.MemShare - p.cpuMemShareEWMA)
	}

	// Transient timers.
	if gpu.Active > 0 {
		p.gpuIdleFor = 0
		p.gpuEverObserved = true
	} else {
		p.gpuIdleFor += dt
	}
	if p.throttleRemain > 0 {
		p.throttleRemain -= dt
		if p.throttleRemain < 0 {
			p.throttleRemain = 0
		}
	}

	// First-order thermal model: dT/dt = (P − (T − Tamb)/R) / C.
	if p.policy.ThermalResistanceKPerW > 0 {
		leak := (p.tempC - p.policy.AmbientC) / p.policy.ThermalResistanceKPerW
		p.tempC += dts * (w - leak) / p.policy.ThermalCapacitanceJPerK
	}

	// RAPL-style running-average power limiting: integral controller
	// on the frequency scale.
	p.powerEWMA += p.dtMemo.ewma * (w - p.powerEWMA)
	err := (p.policy.TDPW - p.powerEWMA) / p.policy.TDPW
	// Over-temperature overrides the power budget: force the scale
	// down proportionally to the overshoot.
	if p.policy.ThermalResistanceKPerW > 0 && p.tempC > p.policy.ThrottleTempC {
		over := (p.tempC - p.policy.ThrottleTempC) / 10
		if over > 1 {
			over = 1
		}
		err = -over
	}
	p.budgetScale += p.policy.BudgetGain * err * dts
	p.budgetScale = clamp(p.budgetScale, 0.35, 1)
	return b
}

// Temperature returns the modeled die temperature in °C (ambient when
// the thermal model is disabled).
func (p *PCU) Temperature() float64 { return p.tempC }

// State is an opaque snapshot of the PCU's mutable state, used by
// what-if analyses (the dynamic oracle) to roll the simulation back.
type State struct {
	budgetScale      float64
	powerEWMA        float64
	throttleRemain   time.Duration
	gpuIdleFor       time.Duration
	gpuEverObserved  bool
	cpuMemShareEWMA  float64
	tempC            float64
	lastBreakdown    Breakdown
	totalEnergyJ     float64
	coreEnergyJ      float64
	gpuEnergyJ       float64
	dramEnergyJ      float64
	simulatedSeconds float64
}

// Snapshot captures the PCU's mutable state.
func (p *PCU) Snapshot() State {
	return State{
		budgetScale:      p.budgetScale,
		powerEWMA:        p.powerEWMA,
		throttleRemain:   p.throttleRemain,
		gpuIdleFor:       p.gpuIdleFor,
		gpuEverObserved:  p.gpuEverObserved,
		cpuMemShareEWMA:  p.cpuMemShareEWMA,
		tempC:            p.tempC,
		lastBreakdown:    p.lastBreakdown,
		totalEnergyJ:     p.totalEnergyJ,
		coreEnergyJ:      p.coreEnergyJ,
		gpuEnergyJ:       p.gpuEnergyJ,
		dramEnergyJ:      p.dramEnergyJ,
		simulatedSeconds: p.simulatedSeconds,
	}
}

// Restore rolls the PCU back to a snapshot taken on the same instance.
func (p *PCU) Restore(s State) {
	p.budgetScale = s.budgetScale
	p.powerEWMA = s.powerEWMA
	p.throttleRemain = s.throttleRemain
	p.gpuIdleFor = s.gpuIdleFor
	p.gpuEverObserved = s.gpuEverObserved
	p.cpuMemShareEWMA = s.cpuMemShareEWMA
	p.tempC = s.tempC
	p.lastBreakdown = s.lastBreakdown
	p.totalEnergyJ = s.totalEnergyJ
	p.coreEnergyJ = s.coreEnergyJ
	p.gpuEnergyJ = s.gpuEnergyJ
	p.dramEnergyJ = s.dramEnergyJ
	p.simulatedSeconds = s.simulatedSeconds
}

// TotalEnergy returns the package energy integrated since Reset, in
// joules. The MSR emulation samples this (MSR_PKG_ENERGY_STATUS).
func (p *PCU) TotalEnergy() float64 { return p.totalEnergyJ }

// CoreEnergy returns the CPU-core (RAPL PP0 domain) energy in joules.
func (p *PCU) CoreEnergy() float64 { return p.coreEnergyJ }

// GPUEnergy returns the integrated-GPU (RAPL PP1 domain) energy.
func (p *PCU) GPUEnergy() float64 { return p.gpuEnergyJ }

// DRAMEnergy returns the memory-subsystem (RAPL DRAM domain) energy.
func (p *PCU) DRAMEnergy() float64 { return p.dramEnergyJ }

// LastBreakdown returns the power breakdown of the most recent tick.
func (p *PCU) LastBreakdown() Breakdown { return p.lastBreakdown }

// Throttled reports whether the reaction transient is currently active.
func (p *PCU) Throttled() bool { return p.throttleRemain > 0 }

// BudgetScale exposes the TDP controller state (for tests and traces).
func (p *PCU) BudgetScale() float64 { return p.budgetScale }

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

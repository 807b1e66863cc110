// Package engine simulates the timed execution of data-parallel kernel
// invocations on a simulated integrated CPU-GPU platform.
//
// One Phase models the execution structure of the paper's runtime: a
// chunk of work enqueued to the GPU (through the proxy thread) while
// the CPU worker threads drain a shared pool of remaining items. The
// engine advances a variable-step simulation — steps are capped at the
// platform tick but shortened to land exactly on events (kernel launch
// completion, a device draining its work) — and on every step it closes
// the loop with the PCU: frequencies are requested, the realized device
// loads are reported back, and package power is integrated into the
// platform's MSR.
//
// Everything the scheduler under test observes (throughputs, counter
// deltas, MSR energy) comes out of this loop; the engine itself never
// exposes the PCU's internals, preserving the paper's black-box
// setting.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/hwc"
	"github.com/hetsched/eas/internal/msr"
	"github.com/hetsched/eas/internal/pcu"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/trace"
)

// epsilon below which remaining item counts are treated as drained.
const epsilon = 1e-9

// minStep bounds steps away from zero so the loop always progresses.
const minStep = time.Microsecond

// MaxPhaseDuration aborts phases that fail to finish in simulated time;
// hitting it indicates a mis-specified kernel, not a slow machine.
const MaxPhaseDuration = 30 * time.Minute

// ErrPhaseTimeout is returned when a phase exceeds MaxPhaseDuration.
var ErrPhaseTimeout = errors.New("engine: phase exceeded maximum simulated duration")

// ErrGPUBusy is returned when a phase asks for GPU work while the
// device is owned by another application (statically via
// platform.SetGPUBusy, or transiently via an injected fault). The
// error is returned before any simulation state advances, so a retry
// is always safe.
var ErrGPUBusy = errors.New("engine: GPU owned by another application")

// Kernel describes one kernel invocation's per-item cost for the
// simulator, with optional per-invocation speed perturbations that
// model run-to-run irregularity (the reason online profiling can
// mispredict, as the paper observes for Connected Components).
type Kernel struct {
	Name string
	Cost device.CostProfile
	// CPUSpeedFactor and GPUSpeedFactor multiply the respective
	// device's throughput for this invocation. Zero means 1.
	CPUSpeedFactor, GPUSpeedFactor float64
}

func (k Kernel) cpuFactor() float64 {
	if k.CPUSpeedFactor <= 0 {
		return 1
	}
	return k.CPUSpeedFactor
}

func (k Kernel) gpuFactor() float64 {
	if k.GPUSpeedFactor <= 0 {
		return 1
	}
	return k.GPUSpeedFactor
}

// Phase is one simulated execution phase.
type Phase struct {
	Kernel Kernel
	// GPUItems are handed to the GPU at phase start (after the launch
	// overhead elapses).
	GPUItems float64
	// PoolItems seed the shared work pool the CPU workers drain.
	PoolItems float64
	// StopWhenGPUDone stops the phase the moment the GPU finishes its
	// chunk, leaving undrained pool items behind — the structure of
	// the online profiling step.
	StopWhenGPUDone bool
	// Trace, when non-nil, records per-step power/utilization series.
	Trace *trace.Set
}

// Result summarizes a simulated phase.
type Result struct {
	// Duration is the phase's simulated wall time.
	Duration time.Duration
	// CPUBusy and GPUBusy are each device's busy time within the phase.
	CPUBusy, GPUBusy time.Duration
	// CPUItems and GPUItems are the items each device retired.
	CPUItems, GPUItems float64
	// PoolRemaining is what the CPU left in the shared pool (non-zero
	// only for StopWhenGPUDone phases).
	PoolRemaining float64
	// EnergyJ is the package energy measured across the phase through
	// the emulated MSR (exactly as the runtime would measure it).
	EnergyJ float64
	// Counters is the CPU hardware-counter delta across the phase.
	Counters hwc.Counters
}

// AvgPowerW returns the mean package power over the phase.
func (r Result) AvgPowerW() float64 {
	s := r.Duration.Seconds()
	if s <= 0 {
		return 0
	}
	return r.EnergyJ / s
}

// CPUThroughput returns items/s the CPU sustained while busy.
func (r Result) CPUThroughput() float64 {
	s := r.CPUBusy.Seconds()
	if s <= 0 {
		return 0
	}
	return r.CPUItems / s
}

// GPUThroughput returns items/s the GPU sustained while busy.
func (r Result) GPUThroughput() float64 {
	s := r.GPUBusy.Seconds()
	if s <= 0 {
		return 0
	}
	return r.GPUItems / s
}

// Engine drives one platform. Phases are serialized internally by a
// mutex, so concurrent Run/RunIdle calls are race-free — but they
// interleave at phase granularity on the one shared virtual clock, so
// callers that need whole-invocation exclusivity (honest per-tenant
// energy attribution) must still serialize externally. core.Scheduler
// does so with its admission gate. The mutex covers the one case the
// gate cannot: a holder the watchdog revoked may still be mid-phase
// when the next holder is admitted.
type Engine struct {
	mu     sync.Mutex // serializes simulated phases on the shared clock/PCU/MSRs
	p      *platform.Platform
	faults *faultinject.Plan
}

// New returns an engine over the given platform.
func New(p *platform.Platform) *Engine {
	if p == nil {
		panic("engine: nil platform")
	}
	return &Engine{p: p}
}

// Platform returns the platform the engine drives.
func (e *Engine) Platform() *platform.Platform { return e.p }

// SetFaultPlan attaches a fault-injection plan consulted at every GPU
// dispatch (nil detaches).
func (e *Engine) SetFaultPlan(pl *faultinject.Plan) { e.faults = pl }

// FaultPlan returns the attached fault-injection plan (nil when none).
// Layers above the engine — the profiler injecting lying-profile
// faults — consult it so one plan scripts the whole stack.
func (e *Engine) FaultPlan() *faultinject.Plan { return e.faults }

// Run simulates one phase to completion.
func (e *Engine) Run(ph Phase) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ph.Kernel.Cost.Validate(); err != nil {
		return Result{}, fmt.Errorf("engine: kernel %q: %w", ph.Kernel.Name, err)
	}
	if ph.GPUItems < 0 || ph.PoolItems < 0 {
		return Result{}, fmt.Errorf("engine: negative work in phase for kernel %q", ph.Kernel.Name)
	}
	if ph.StopWhenGPUDone && ph.GPUItems <= 0 {
		return Result{}, fmt.Errorf("engine: profiling phase for kernel %q has no GPU items", ph.Kernel.Name)
	}

	// GPU dispatch faults resolve before any simulation state advances,
	// so callers can retry or degrade without rollback.
	gpuSlowdown := 1.0
	if ph.GPUItems > epsilon {
		if _, busy := e.faults.Take(faultinject.GPUBusy); busy {
			return Result{}, fmt.Errorf("engine: kernel %q dispatch: %w", ph.Kernel.Name, ErrGPUBusy)
		}
		if f, slow := e.faults.Take(faultinject.SlowGPU); slow {
			gpuSlowdown = f
		}
	}

	spec := e.p.SpecRef()
	cost := ph.Kernel.Cost
	traffic := cost.TrafficBytes()
	misses := cost.MissesPerItem()
	tick := spec.Tick
	tickSeconds := tick.Seconds()

	meter := msr.NewMeter(e.p.MSR)
	counters0 := e.p.HWC.Snapshot()
	start := e.p.Clock.Now()

	var res Result
	gpuRemaining := ph.GPUItems
	pool := ph.PoolItems
	launchRemaining := time.Duration(0)
	if gpuRemaining > epsilon {
		e.p.PCU.NoteGPUKernelStart()
		launchRemaining = spec.GPU.LaunchOverhead
	}

	// Everything a step derives before integrating is a pure function
	// of its operating point — the two clocks, which devices are busy,
	// and whether the GPU is past its launch window — because the other
	// inputs (cost, GPU item count, speed factors, spec, slowdown) are
	// fixed for the phase. The operating point rarely moves between
	// steps, so keep the last one's derived values, keyed on its exact
	// inputs. The NaN clock never matches, so the first step computes.
	var op struct {
		cpuHz, gpuHz                   float64
		cpuBusy, gpuBusy, gpuExecuting bool
		cpuTP, gpuTP                   float64
		cpuLoad, gpuLoad               device.Load
	}
	op.cpuHz = math.NaN()

	for {
		cpuBusy := pool > epsilon
		gpuBusy := gpuRemaining > epsilon
		if !cpuBusy && !gpuBusy {
			break
		}
		if ph.StopWhenGPUDone && !gpuBusy {
			break
		}
		now := e.p.Clock.Now()
		if now-start > MaxPhaseDuration {
			return res, fmt.Errorf("%w (kernel %q)", ErrPhaseTimeout, ph.Kernel.Name)
		}

		cpuHz, gpuHz := e.p.PCU.Frequencies(cpuBusy, gpuBusy)
		gpuExecuting := gpuBusy && launchRemaining <= 0

		if cpuHz != op.cpuHz || gpuHz != op.gpuHz || cpuBusy != op.cpuBusy ||
			gpuBusy != op.gpuBusy || gpuExecuting != op.gpuExecuting {
			op.cpuHz, op.gpuHz = cpuHz, gpuHz
			op.cpuBusy, op.gpuBusy, op.gpuExecuting = cpuBusy, gpuBusy, gpuExecuting

			// Worker cores: the GPU proxy thread costs a fraction of one
			// core whenever a kernel is in flight.
			workerCores := 0.0
			if cpuBusy {
				workerCores = float64(spec.CPU.Cores)
				if gpuBusy {
					workerCores -= spec.ProxyCoreFraction
				}
			}

			// Compute-side throughputs (pre-bandwidth).
			cpuTPc := 0.0
			if cpuBusy {
				cpuTPc = spec.CPU.ComputeThroughput(cpuHz, cost, workerCores) * ph.Kernel.cpuFactor()
			}
			gpuTPc := 0.0
			if gpuExecuting {
				// Occupancy depends on the enqueued NDRange size, not the
				// instantaneous remainder: hardware retires the final wave
				// of a large kernel at full rate, while a small kernel
				// under-fills the machine for its whole run.
				gpuTPc = spec.GPU.ComputeThroughput(gpuHz, cost, ph.GPUItems) * ph.Kernel.gpuFactor()
			}

			// Bandwidth arbitration, with extractable bandwidth reduced
			// for down-clocked devices.
			cpuAlloc, gpuAlloc := spec.Memory.ShareBandwidthScaled(
				device.BandwidthDemand(cpuTPc, cost),
				device.BandwidthDemand(gpuTPc, cost),
				device.FreqBandwidthScale(cpuHz, spec.Policy.CPUTurboHz),
				device.FreqBandwidthScale(gpuHz, spec.Policy.GPUTurboHz),
			)
			cpuBW := device.BandwidthLimitedThroughput(cpuAlloc, cost)
			gpuBW := device.BandwidthLimitedThroughput(gpuAlloc, cost)
			cpuTP := cpuTPc
			if cpuBW < cpuTP {
				cpuTP = cpuBW
			}
			gpuTP := gpuTPc
			if gpuBW < gpuTP {
				gpuTP = gpuBW
			}
			// An injected slow device retires items below its modeled
			// rate whatever the limiter (compute or bandwidth) — the
			// shape of a thermally throttled or contended GPU.
			gpuTP /= gpuSlowdown
			op.cpuTP, op.gpuTP = cpuTP, gpuTP

			// The realized loads the PCU will see.
			op.cpuLoad = device.Load{Hz: cpuHz}
			powerCores := workerCores
			if gpuBusy {
				powerCores += spec.ProxyCoreFraction // proxy spins while GPU runs
			}
			if powerCores > 0 {
				op.cpuLoad.Active = 1
				op.cpuLoad.ActiveCores = powerCores
				op.cpuLoad.MemShare = device.MemStallShare(cpuTPc, cpuBW)
				op.cpuLoad.MemBytesPerSec = cpuTP * traffic
			}
			op.gpuLoad = device.Load{Hz: gpuHz}
			if gpuBusy {
				op.gpuLoad.Active = 1
				op.gpuLoad.MemShare = device.MemStallShare(gpuTPc, gpuBW)
				op.gpuLoad.MemBytesPerSec = gpuTP * traffic
			}
		}
		cpuTP, gpuTP := op.cpuTP, op.gpuTP

		// Step length: capped at the tick, shortened to hit events.
		dt := tick
		if launchRemaining > 0 && launchRemaining < dt {
			dt = launchRemaining
		}
		if cpuTP > 0 {
			if d := durationFor(pool / cpuTP); d < dt {
				dt = d
			}
		}
		if gpuTP > 0 {
			if d := durationFor(gpuRemaining / gpuTP); d < dt {
				dt = d
			}
		}
		if dt < minStep {
			dt = minStep
		}
		dts := tickSeconds
		if dt != tick {
			dts = dt.Seconds()
		}

		// Retire work.
		cpuDone := minf(pool, cpuTP*dts)
		gpuDone := minf(gpuRemaining, gpuTP*dts)
		pool -= cpuDone
		gpuRemaining -= gpuDone
		res.CPUItems += cpuDone
		res.GPUItems += gpuDone
		if cpuBusy {
			res.CPUBusy += dt
		}
		if gpuExecuting {
			// Busy time counts kernel execution only, matching the
			// OpenCL event profiling (COMMAND_START/END) the runtime's
			// throughput measurements would use on hardware; the
			// launch window still contributes to Duration.
			res.GPUBusy += dt
		}
		if launchRemaining > 0 {
			launchRemaining -= dt
		}

		// CPU hardware counters see only CPU-retired items.
		e.p.HWC.Account(cpuDone, misses, cost.Instructions, cost.MemOps)

		// Report realized loads to the PCU.
		bk := e.p.PCU.Observe(op.cpuLoad, op.gpuLoad, dt)

		if ph.Trace != nil {
			e.record(ph.Trace, now, bk, op.cpuLoad, op.gpuLoad)
		}
		e.p.Clock.AdvanceExact(dt)
	}

	res.Duration = e.p.Clock.Now() - start
	res.PoolRemaining = pool
	res.EnergyJ = meter.Joules()
	res.Counters = e.p.HWC.Snapshot().Sub(counters0)
	return res, nil
}

// RunIdle advances the platform through d of idle time, letting PCU
// transients decay and recording idle power into tr if non-nil.
func (e *Engine) RunIdle(d time.Duration, tr *trace.Set) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	tick := e.p.Clock.Tick()
	if tr != nil && tick > 0 {
		// The recording grid is fixed (one sample per tick), so reserve
		// the whole run's samples up front instead of growing ~log n
		// times mid-loop.
		tr.Grow(int((d + tick - 1) / tick))
	}
	for elapsed := time.Duration(0); elapsed < d; elapsed += tick {
		step := tick
		if rem := d - elapsed; rem < step {
			step = rem
		}
		now := e.p.Clock.Now()
		bk := e.p.PCU.Observe(device.Load{}, device.Load{}, step)
		if tr != nil {
			e.record(tr, now, bk, device.Load{}, device.Load{})
		}
		e.p.Clock.AdvanceExact(step)
	}
}

func (e *Engine) record(tr *trace.Set, now time.Duration, bk pcu.Breakdown, cpu, gpu device.Load) {
	tr.PackagePower.Append(now, bk.Total())
	tr.CPUPower.Append(now, bk.CPU)
	tr.GPUPower.Append(now, bk.GPU)
	tr.DRAMPower.Append(now, bk.DRAM)
	tr.IdlePower.Append(now, bk.Idle)
	tr.CPUUtil.Append(now, cpu.Active)
	tr.GPUUtil.Append(now, gpu.Active)
	tr.CPUFreq.Append(now, cpu.Hz)
	tr.GPUFreq.Append(now, gpu.Hz)
	tr.Temperature.Append(now, e.p.PCU.Temperature())
}

// durationFor converts seconds to a duration, rounding *up* to the next
// nanosecond (so an event-aligned step always covers the event — a
// truncated step would leave a fractional-item remnant crawling at
// near-zero occupancy) and saturating at very large values instead of
// overflowing.
func durationFor(seconds float64) time.Duration {
	const maxSeconds = float64(1<<62) / 1e9
	if seconds >= maxSeconds {
		return 1 << 62
	}
	if seconds <= 0 {
		return 0
	}
	return time.Duration(math.Ceil(seconds * 1e9))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

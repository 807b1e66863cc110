package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/msr"
	"github.com/hetsched/eas/internal/pcu"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/trace"
)

// referenceRun is Run's loop with no memos: every pure function of the
// step is recomputed on every step. It skips validation and takes the
// GPU slowdown directly instead of drawing it from a fault plan.
func referenceRun(p *platform.Platform, ph Phase, gpuSlowdown float64) Result {
	spec := p.Spec()
	cost := ph.Kernel.Cost
	meter := msr.NewMeter(p.MSR)
	counters0 := p.HWC.Snapshot()
	start := p.Clock.Now()

	var res Result
	gpuRemaining := ph.GPUItems
	pool := ph.PoolItems
	launchRemaining := time.Duration(0)
	if gpuRemaining > epsilon {
		p.PCU.NoteGPUKernelStart()
		launchRemaining = spec.GPU.LaunchOverhead
	}
	for {
		cpuBusy := pool > epsilon
		gpuBusy := gpuRemaining > epsilon
		if !cpuBusy && !gpuBusy || ph.StopWhenGPUDone && !gpuBusy {
			break
		}
		now := p.Clock.Now()
		cpuHz, gpuHz := p.PCU.Frequencies(cpuBusy, gpuBusy)

		workerCores := 0.0
		if cpuBusy {
			workerCores = float64(spec.CPU.Cores)
			if gpuBusy {
				workerCores -= spec.ProxyCoreFraction
			}
		}
		cpuTPc := 0.0
		if cpuBusy {
			cpuTPc = spec.CPU.ComputeThroughput(cpuHz, cost, workerCores) * ph.Kernel.cpuFactor()
		}
		gpuTPc := 0.0
		gpuExecuting := gpuBusy && launchRemaining <= 0
		if gpuExecuting {
			gpuTPc = spec.GPU.ComputeThroughput(gpuHz, cost, ph.GPUItems) * ph.Kernel.gpuFactor()
		}
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
		gpuTP /= gpuSlowdown

		dt := spec.Tick
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
		dts := dt.Seconds()

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
			res.GPUBusy += dt
		}
		if launchRemaining > 0 {
			launchRemaining -= dt
		}
		p.HWC.Account(cpuDone, cost.MissesPerItem(), cost.Instructions, cost.MemOps)

		cpuLoad := device.Load{Hz: cpuHz}
		powerCores := workerCores
		if gpuBusy {
			powerCores += spec.ProxyCoreFraction
		}
		if powerCores > 0 {
			cpuLoad.Active = 1
			cpuLoad.ActiveCores = powerCores
			cpuLoad.MemShare = device.MemStallShare(cpuTPc, cpuBW)
			cpuLoad.MemBytesPerSec = cpuTP * cost.TrafficBytes()
		}
		gpuLoad := device.Load{Hz: gpuHz}
		if gpuBusy {
			gpuLoad.Active = 1
			gpuLoad.MemShare = device.MemStallShare(gpuTPc, gpuBW)
			gpuLoad.MemBytesPerSec = gpuTP * cost.TrafficBytes()
		}
		bk := p.PCU.Observe(cpuLoad, gpuLoad, dt)
		if ph.Trace != nil {
			referenceRecord(p, ph.Trace, now, bk, cpuLoad, gpuLoad)
		}
		p.Clock.AdvanceExact(dt)
	}
	res.Duration = p.Clock.Now() - start
	res.PoolRemaining = pool
	res.EnergyJ = meter.Joules()
	res.Counters = p.HWC.Snapshot().Sub(counters0)
	return res
}

// referenceIdle is RunIdle's loop, reading the tick from the spec.
func referenceIdle(p *platform.Platform, d time.Duration, tr *trace.Set) {
	tick := p.Spec().Tick
	for elapsed := time.Duration(0); elapsed < d; elapsed += tick {
		step := tick
		if rem := d - elapsed; rem < step {
			step = rem
		}
		now := p.Clock.Now()
		bk := p.PCU.Observe(device.Load{}, device.Load{}, step)
		if tr != nil {
			referenceRecord(p, tr, now, bk, device.Load{}, device.Load{})
		}
		p.Clock.AdvanceExact(step)
	}
}

func referenceRecord(p *platform.Platform, tr *trace.Set, now time.Duration, bk pcu.Breakdown, cpu, gpu device.Load) {
	tr.PackagePower.Append(now, bk.Total())
	tr.CPUPower.Append(now, bk.CPU)
	tr.GPUPower.Append(now, bk.GPU)
	tr.DRAMPower.Append(now, bk.DRAM)
	tr.IdlePower.Append(now, bk.Idle)
	tr.CPUUtil.Append(now, cpu.Active)
	tr.GPUUtil.Append(now, gpu.Active)
	tr.CPUFreq.Append(now, cpu.Hz)
	tr.GPUFreq.Append(now, gpu.Hz)
	tr.Temperature.Append(now, p.PCU.Temperature())
}

// refPhase is one step of a reference scenario: a phase, and the GPU
// slowdown an injected fault imposes on it (0 for none).
type refPhase struct {
	ph   Phase
	slow float64
}

// refGap is the idle gap sched.runFixed leaves between invocations.
const refGap = 200 * time.Microsecond

// TestRunMatchesReferenceStepper runs Engine.Run and the memo-free
// reference loop on twin platforms over back-to-back phases with the
// runFixed idle gap between them, and requires every Result, PCU state,
// counter and trace sample to agree bit for bit.
func TestRunMatchesReferenceStepper(t *testing.T) {
	desktop, tablet := platform.DesktopSpec(), platform.TabletSpec()
	compute := Kernel{Name: "compute", Cost: computeCost()}
	memory := Kernel{Name: "memory", Cost: memoryCost()}
	skewed := Kernel{Name: "skewed", Cost: memoryCost(), CPUSpeedFactor: 0.8, GPUSpeedFactor: 1.3}

	scenarios := []struct {
		name   string
		spec   platform.Spec
		phases []refPhase
		// check asserts, on the traced run, that the scenario reached
		// the state it exists to cover.
		check func(t *testing.T, spec platform.Spec, tr *trace.Set)
	}{
		{
			name: "desktop/mixed",
			spec: desktop,
			phases: []refPhase{
				{ph: Phase{Kernel: compute, PoolItems: 2e5}},
				{ph: Phase{Kernel: compute, GPUItems: 3e5}},
				{ph: Phase{Kernel: skewed, GPUItems: 4e5, PoolItems: 6e5}},
				{ph: Phase{Kernel: compute, GPUItems: 2240, PoolItems: 1e6, StopWhenGPUDone: true}},
				{ph: Phase{Kernel: compute, GPUItems: 3, PoolItems: 50}}, // the CPU drains inside the launch window
				{ph: Phase{Kernel: memory, GPUItems: 5e5, PoolItems: 5e5}, slow: 2.5},
				{ph: Phase{Kernel: memory, GPUItems: 5e5, PoolItems: 5e5}},
			},
		},
		{
			// A memory-bound CPU phase raises the stall share past the
			// gate; the next GPU kernel then starts from idle and the
			// reaction window pins the CPU at its floor.
			name: "desktop/throttle",
			spec: desktop,
			phases: []refPhase{
				{ph: Phase{Kernel: memory, PoolItems: 1e6}},
				{ph: Phase{Kernel: memory, GPUItems: 2e6, PoolItems: 2e6}},
			},
			check: func(t *testing.T, spec platform.Spec, tr *trace.Set) {
				for _, s := range tr.CPUFreq.Samples {
					if s.V == spec.Policy.CPUMinHz {
						return
					}
				}
				t.Error("the reaction-window throttle never pinned the CPU at CPUMinHz")
			},
		},
		{
			name: "tablet/mixed",
			spec: tablet,
			phases: []refPhase{
				{ph: Phase{Kernel: compute, PoolItems: 5e4}},
				{ph: Phase{Kernel: compute, GPUItems: 5e4}},
				{ph: Phase{Kernel: skewed, GPUItems: 1e5, PoolItems: 1e5, StopWhenGPUDone: true}},
				{ph: Phase{Kernel: memory, GPUItems: 1e5, PoolItems: 1e5}, slow: 4},
			},
		},
		{
			// Both devices busy on compute-bound work exceed the tablet's
			// package budget, so the TDP controller moves the budget
			// scale, and with it the clocks, on every tick of the overlap.
			// In the second phase the CPU drains its share first: while
			// the scale recovers, the GPU clock moves under a fixed CPU
			// clock.
			name: "tablet/tdp-bound",
			spec: tablet,
			phases: []refPhase{
				{ph: Phase{Kernel: compute, GPUItems: 2e6, PoolItems: 1e6}},
				{ph: Phase{Kernel: compute, GPUItems: 2e6, PoolItems: 3e5}},
			},
			check: func(t *testing.T, spec platform.Spec, tr *trace.Set) {
				cpuMoved, gpuOnlyMoved, n := 0, 0, tr.CPUFreq.Len()
				for i := 1; i < n; i++ {
					cpu, gpu := tr.CPUFreq.Samples, tr.GPUFreq.Samples
					switch {
					case cpu[i].V != cpu[i-1].V:
						cpuMoved++
					case gpu[i].V != gpu[i-1].V:
						gpuOnlyMoved++
					}
				}
				if cpuMoved+gpuOnlyMoved < 600 || gpuOnlyMoved < 50 {
					t.Errorf("clocks moved on %d of %d steps, the GPU's alone on %d; want hundreds of ticks with a moving budget scale", cpuMoved+gpuOnlyMoved, n, gpuOnlyMoved)
				}
			},
		},
	}

	for _, sc := range scenarios {
		for _, traced := range []bool{false, true} {
			name := sc.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				eng := New(platform.MustNew(sc.spec))
				plan := faultinject.New(1)
				eng.SetFaultPlan(plan)
				ref := platform.MustNew(sc.spec)
				var engTr, refTr *trace.Set
				if traced {
					engTr, refTr = trace.NewSet(), trace.NewSet()
				}
				for i, rp := range sc.phases {
					slow := 1.0
					if rp.slow > 0 {
						plan.Script(faultinject.SlowGPU, 1, rp.slow)
						slow = rp.slow
					}
					ph := rp.ph
					ph.Trace = engTr
					got, err := eng.Run(ph)
					if err != nil {
						t.Fatalf("phase %d: %v", i, err)
					}
					ph.Trace = refTr
					want := referenceRun(ref, ph, slow)
					eng.RunIdle(refGap, engTr)
					referenceIdle(ref, refGap, refTr)

					where := fmt.Sprintf("phase %d", i)
					requireSameBits(t, where+" Result", got, want)
					requireSameBits(t, where+" PCU state", eng.Platform().PCU.Snapshot(), ref.PCU.Snapshot())
					requireSameBits(t, where+" HWC", eng.Platform().HWC.Raw(), ref.HWC.Raw())
					requireSameBits(t, where+" clock", eng.Platform().Clock.Now(), ref.Clock.Now())
				}
				if traced {
					requireSameBits(t, "trace", *engTr, *refTr)
					if sc.check != nil {
						sc.check(t, sc.spec, engTr)
					}
				}
			})
		}
	}
}

// requireSameBits fails unless got and want hold the same bits in every
// field, unexported ones included; floats compare by math.Float64bits.
func requireSameBits(t *testing.T, what string, got, want any) {
	t.Helper()
	if d := bitsDiff(reflect.ValueOf(got), reflect.ValueOf(want), what); d != "" {
		t.Fatal(d)
	}
}

func bitsDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) != %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %v != %v", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		return bitsDiff(a.Elem(), b.Elem(), path)
	default:
		return fmt.Sprintf("%s: unsupported kind %v", path, a.Kind())
	}
	return ""
}

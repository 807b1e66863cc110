package pcu_test

import (
	"math"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/pcu"
	"github.com/hetsched/eas/internal/platform"
)

// memoScript steps a PCU through a scripted load sequence and checks
// every Observe against the reference PowerModel.Package, bit for bit.
// It also integrates package energy the way the PCU does, from the
// reference breakdowns, so a memoized value that leaks into the
// integration shows up in TotalEnergy.
type memoScript struct {
	t       *testing.T
	name    string
	spec    platform.Spec
	p       *pcu.PCU
	energyJ float64
	steps   int

	cpuHz, gpuHz map[float64]bool // distinct clocks observed while busy
	throttled    int              // busy-CPU steps at the CPUMinHz floor
	minScale     float64          // lowest budget scale seen
}

func newMemoScript(t *testing.T, spec platform.Spec) *memoScript {
	return &memoScript{
		t: t, name: spec.Name, spec: spec,
		p:        pcu.New(spec.Policy, spec.Power),
		cpuHz:    map[float64]bool{},
		gpuHz:    map[float64]bool{},
		minScale: 1,
	}
}

// run advances n steps of length dt with the given devices busy. The
// CPU's memory-stall share is memShare and each busy device moves
// dramGBs of DRAM traffic; idle devices report zero load at the clock
// the PCU chose.
func (d *memoScript) run(n int, cpuBusy, gpuBusy bool, memShare, dramGBs float64, dt time.Duration) {
	d.t.Helper()
	cores := float64(d.spec.CPU.Cores)
	for i := 0; i < n; i++ {
		cpuHz, gpuHz := d.p.Frequencies(cpuBusy, gpuBusy)
		cpu := device.Load{Hz: cpuHz}
		if cpuBusy {
			cpu = device.Load{Active: 1, ActiveCores: cores, Hz: cpuHz, MemShare: memShare, MemBytesPerSec: dramGBs * 1e9}
			d.cpuHz[cpuHz] = true
			if cpuHz == d.spec.Policy.CPUMinHz {
				d.throttled++
			}
		}
		gpu := device.Load{Hz: gpuHz}
		if gpuBusy {
			gpu = device.Load{Active: 1, Hz: gpuHz, MemShare: 0.3, MemBytesPerSec: dramGBs * 1e9}
			d.gpuHz[gpuHz] = true
		}
		got := d.p.Observe(cpu, gpu, dt)
		want := d.spec.Power.Package(cpu, gpu)
		if !sameBits(got, want) {
			d.t.Fatalf("%s step %d: Observe = %+v, Package = %+v", d.name, d.steps, got, want)
		}
		d.energyJ += want.Total() * dt.Seconds()
		if math.Float64bits(d.p.TotalEnergy()) != math.Float64bits(d.energyJ) {
			d.t.Fatalf("%s step %d: TotalEnergy = %v, reference integral = %v", d.name, d.steps, d.p.TotalEnergy(), d.energyJ)
		}
		if s := d.p.BudgetScale(); s < d.minScale {
			d.minScale = s
		}
		d.steps++
	}
}

func sameBits(a, b pcu.Breakdown) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Idle, b.Idle) && eq(a.CPU, b.CPU) && eq(a.GPU, b.GPU) && eq(a.DRAM, b.DRAM)
}

// TestObserveMatchesPackageBitForBit drives both platform PCUs through
// clock changes, the tablet's budget-scale drift, the desktop's
// reaction-window throttle, odd step lengths, and a Snapshot/Restore
// and a Reset mid-sequence: every Breakdown Observe returns must equal
// the reference Package computation exactly, whatever its memos hold.
func TestObserveMatchesPackageBitForBit(t *testing.T) {
	const tick = time.Millisecond
	for _, spec := range []platform.Spec{platform.DesktopSpec(), platform.TabletSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			d := newMemoScript(t, spec)
			// CPU alone: compute-bound, then memory-bound long enough
			// to arm the reaction-window gate.
			d.run(40, true, false, 0.1, 2, tick)
			d.run(120, true, false, 0.9, 8, tick)
			// GPU starts from idle: the desktop throttles the stalled
			// CPU to CPUMinHz for the reaction window; the heavy DRAM
			// traffic then pushes both packages over their budget, so
			// the scale (and with it both clocks) drifts.
			d.p.NoteGPUKernelStart()
			d.run(300, true, true, 0.9, 20, tick)
			d.run(300, true, true, 0.1, 10, tick)

			// Snapshot, wander onto other clocks and step lengths,
			// and roll back: the memos now hold post-snapshot clocks.
			snap := d.p.Snapshot()
			energyAtSnap := d.energyJ
			d.run(60, true, false, 0.2, 1, 370*time.Microsecond)
			d.run(30, false, true, 0, 1, tick)
			d.p.Restore(snap)
			d.energyJ = energyAtSnap
			d.run(80, true, true, 0.6, 15, tick)
			d.run(25, true, true, 0.6, 15, 130*time.Microsecond)

			// Idle gap, then a Reset to boot state mid-sequence.
			d.run(100, false, false, 0, 0, tick)
			d.p.Reset()
			d.energyJ = 0
			d.run(50, false, true, 0, 5, tick)
			d.p.NoteGPUKernelStart()
			d.run(150, true, true, 0.95, 20, tick)
			d.run(10, true, true, 0.95, 20, 1)

			if spec.Policy.ThrottleOnGPUStart && d.throttled == 0 {
				t.Error("sequence never reached the reaction-window throttle to CPUMinHz")
			}
			if d.minScale >= 1 || len(d.cpuHz) < 10 || len(d.gpuHz) < 10 {
				t.Errorf("budget scale never drifted far enough to move the memoized clocks (min %v, %d CPU and %d GPU clocks)", d.minScale, len(d.cpuHz), len(d.gpuHz))
			}
		})
	}
}

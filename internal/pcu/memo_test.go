package pcu_test

import (
	"fmt"
	"math"
	"reflect"
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
// integration shows up in TotalEnergy. A twin PCU whose memos are
// forgotten before every Observe follows the same script, and the two
// must agree on every returned breakdown, chosen clock and snapshot
// field: that covers the step-length memo, whose coefficients feed
// only the EWMAs and the controller.
type memoScript struct {
	t       *testing.T
	name    string
	spec    platform.Spec
	p, ref  *pcu.PCU
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
		ref:      pcu.New(spec.Policy, spec.Power),
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
		if rc, rg := d.ref.Frequencies(cpuBusy, gpuBusy); !sameFloat(cpuHz, rc) || !sameFloat(gpuHz, rg) {
			d.t.Fatalf("%s step %d: Frequencies = (%v, %v), memo-free twin = (%v, %v)", d.name, d.steps, cpuHz, gpuHz, rc, rg)
		}
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
		d.observe(cpu, gpu, dt)
		if s := d.p.BudgetScale(); s < d.minScale {
			d.minScale = s
		}
	}
}

// idle advances n steps of length dt with both devices reporting
// all-zero loads, as the engine's idle gaps between phases do.
func (d *memoScript) idle(n int, dt time.Duration) {
	d.t.Helper()
	for i := 0; i < n; i++ {
		d.observe(device.Load{}, device.Load{}, dt)
	}
}

// observe feeds one tick to both PCUs and checks the result.
func (d *memoScript) observe(cpu, gpu device.Load, dt time.Duration) {
	d.t.Helper()
	got := d.p.Observe(cpu, gpu, dt)
	want := d.spec.Power.Package(cpu, gpu)
	if !sameBits(got, want) {
		d.t.Fatalf("%s step %d: Observe = %+v, Package = %+v", d.name, d.steps, got, want)
	}
	d.ref.ForgetMemos()
	if twin := d.ref.Observe(cpu, gpu, dt); !sameBits(got, twin) {
		d.t.Fatalf("%s step %d: Observe = %+v, memo-free twin = %+v", d.name, d.steps, got, twin)
	}
	if diff := stateDiff(d.p.Snapshot(), d.ref.Snapshot()); diff != "" {
		d.t.Fatalf("%s step %d: state differs from the memo-free twin: %s", d.name, d.steps, diff)
	}
	d.energyJ += want.Total() * dt.Seconds()
	if !sameFloat(d.p.TotalEnergy(), d.energyJ) {
		d.t.Fatalf("%s step %d: TotalEnergy = %v, reference integral = %v", d.name, d.steps, d.p.TotalEnergy(), d.energyJ)
	}
	d.steps++
}

// snapshot and restore act on both PCUs and the reference integral.
func (d *memoScript) snapshot() (pcu.State, pcu.State, float64) {
	return d.p.Snapshot(), d.ref.Snapshot(), d.energyJ
}

func (d *memoScript) restore(p, ref pcu.State, energyJ float64) {
	d.p.Restore(p)
	d.ref.Restore(ref)
	d.energyJ = energyJ
}

func (d *memoScript) kernelStart() {
	d.p.NoteGPUKernelStart()
	d.ref.NoteGPUKernelStart()
}

func (d *memoScript) reset() {
	d.p.Reset()
	d.ref.Reset()
	d.energyJ = 0
}

func sameFloat(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameBits(a, b pcu.Breakdown) bool {
	return sameFloat(a.Idle, b.Idle) && sameFloat(a.CPU, b.CPU) && sameFloat(a.GPU, b.GPU) && sameFloat(a.DRAM, b.DRAM)
}

// stateDiff names the first field, unexported ones included, where two
// snapshots differ in their bits, or returns "".
func stateDiff(a, b pcu.State) string {
	var walk func(x, y reflect.Value, path string) string
	walk = func(x, y reflect.Value, path string) string {
		switch x.Kind() {
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				if d := walk(x.Field(i), y.Field(i), path+"."+x.Type().Field(i).Name); d != "" {
					return d
				}
			}
		case reflect.Float64:
			if !sameFloat(x.Float(), y.Float()) {
				return fmt.Sprintf("%s: %v != %v", path, x.Float(), y.Float())
			}
		case reflect.Int64:
			if x.Int() != y.Int() {
				return fmt.Sprintf("%s: %v != %v", path, x.Int(), y.Int())
			}
		case reflect.Bool:
			if x.Bool() != y.Bool() {
				return fmt.Sprintf("%s: %v != %v", path, x.Bool(), y.Bool())
			}
		default:
			return fmt.Sprintf("%s: unsupported kind %v", path, x.Kind())
		}
		return ""
	}
	return walk(reflect.ValueOf(a), reflect.ValueOf(b), "State")
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
			d.kernelStart()
			d.run(300, true, true, 0.9, 20, tick)
			d.run(300, true, true, 0.1, 10, tick)

			// Snapshot, wander onto other clocks and step lengths,
			// and roll back: the memos now hold post-snapshot clocks.
			snap, refSnap, energyAtSnap := d.snapshot()
			d.run(60, true, false, 0.2, 1, 370*time.Microsecond)
			d.run(30, false, true, 0, 1, tick)
			d.restore(snap, refSnap, energyAtSnap)
			d.run(80, true, true, 0.6, 15, tick)
			d.run(25, true, true, 0.6, 15, 130*time.Microsecond)

			// Idle gap, then a Reset to boot state mid-sequence.
			d.run(100, false, false, 0, 0, tick)
			d.reset()
			d.run(50, false, true, 0, 5, tick)
			d.kernelStart()
			d.run(150, true, true, 0.95, 20, tick)
			d.run(10, true, true, 0.95, 20, 1)

			// Busy ticks alternating with the engine's all-zero idle
			// ticks over tick, sub-tick and zero step lengths: every
			// transition moves the load memo between its busy slot and
			// the idle bypass, and the step-length memo between
			// entries. The pattern crosses a Snapshot/Restore and a
			// Reset, each taken between a busy and an idle tick.
			gap := 200 * time.Microsecond // the engine's gap between invocations
			dts := []time.Duration{tick, 20 * time.Microsecond, 0, tick, 370 * time.Microsecond, 0, tick, 1}
			alternate := func() {
				for _, dt := range dts {
					d.run(3, true, true, 0.7, 12, dt)
					d.idle(1, gap)
					d.run(1, true, true, 0.7, 12, dt) // the busy slot may still hold this pair
					d.run(2, false, true, 0, 4, dt)
					d.idle(2, dt)
					d.run(1, true, false, 0.3, 2, 0)
				}
			}
			alternate()
			d.run(1, true, true, 0.7, 12, tick)
			snap, refSnap, energyAtSnap = d.snapshot()
			d.idle(1, gap)
			alternate()
			d.restore(snap, refSnap, energyAtSnap)
			d.idle(1, gap)
			alternate()
			d.run(1, true, true, 0.7, 12, 0)
			d.reset()
			d.idle(1, 0)
			alternate()

			if spec.Policy.ThrottleOnGPUStart && d.throttled == 0 {
				t.Error("sequence never reached the reaction-window throttle to CPUMinHz")
			}
			if d.minScale >= 1 || len(d.cpuHz) < 10 || len(d.gpuHz) < 10 {
				t.Errorf("budget scale never drifted far enough to move the memoized clocks (min %v, %d CPU and %d GPU clocks)", d.minScale, len(d.cpuHz), len(d.gpuHz))
			}
		})
	}
}

package engine

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/trace"
)

func TestRunIdleAdvancesClockAndDecays(t *testing.T) {
	e := desktopEngine()
	tr := trace.NewSet()
	start := e.Platform().Clock.Now()
	e.RunIdle(250*time.Millisecond, tr)
	if got := e.Platform().Clock.Now() - start; got != 250*time.Millisecond {
		t.Errorf("idle advanced %v, want 250ms", got)
	}
	if w := tr.PackagePower.Mean(); math.Abs(w-12) > 0.5 {
		t.Errorf("idle power = %v, want ≈12 W", w)
	}
	// Negative/zero durations are no-ops.
	before := e.Platform().Clock.Now()
	e.RunIdle(0, nil)
	e.RunIdle(-time.Second, nil)
	if e.Platform().Clock.Now() != before {
		t.Error("zero/negative idle moved the clock")
	}
}

func TestTraceSeriesConsistency(t *testing.T) {
	e := desktopEngine()
	tr := trace.NewSet()
	run(t, e, Phase{Kernel: Kernel{Cost: memoryCost()}, GPUItems: 1e6, PoolItems: 1e6, Trace: tr})
	n := tr.PackagePower.Len()
	if n == 0 {
		t.Fatal("no trace samples")
	}
	for _, s := range []*trace.Series{tr.CPUPower, tr.GPUPower, tr.CPUUtil, tr.GPUUtil, tr.CPUFreq, tr.GPUFreq} {
		if s.Len() != n {
			t.Errorf("series %s has %d samples, want %d", s.Name, s.Len(), n)
		}
	}
	// Package power must dominate its components.
	for i := range tr.PackagePower.Samples {
		pkg := tr.PackagePower.Samples[i].V
		cpu := tr.CPUPower.Samples[i].V
		gpu := tr.GPUPower.Samples[i].V
		if pkg < cpu+gpu-1e-9 {
			t.Fatalf("sample %d: package %v < cpu %v + gpu %v", i, pkg, cpu, gpu)
		}
	}
	// Utilization stays in [0,1].
	if tr.CPUUtil.Max() > 1 || tr.CPUUtil.Min() < 0 || tr.GPUUtil.Max() > 1 {
		t.Error("utilization outside [0,1]")
	}
}

func TestBackToBackPhasesContinueClock(t *testing.T) {
	e := desktopEngine()
	r1 := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, PoolItems: 1e6})
	mid := e.Platform().Clock.Now()
	if mid != r1.Duration {
		t.Errorf("clock %v after first phase, want %v", mid, r1.Duration)
	}
	r2 := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: 1e6})
	if got := e.Platform().Clock.Now(); got != mid+r2.Duration {
		t.Errorf("clock %v after second phase, want %v", got, mid+r2.Duration)
	}
}

// Property: work is always conserved — retired items equal the assigned
// items for non-profiling phases, across random splits and sizes.
func TestWorkConservationProperty(t *testing.T) {
	e := desktopEngine()
	f := func(gpuK, poolK uint16) bool {
		e.Platform().Reset()
		gpu := float64(gpuK) * 50
		pool := float64(poolK) * 50
		res, err := e.Run(Phase{Kernel: Kernel{Cost: memoryCost()}, GPUItems: gpu, PoolItems: pool})
		if err != nil {
			return false
		}
		return math.Abs(res.GPUItems-gpu) < 1e-6 && math.Abs(res.CPUItems-pool) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: more total work never takes less time at a fixed split.
func TestTimeMonotoneInWorkProperty(t *testing.T) {
	e := desktopEngine()
	f := func(k uint8) bool {
		n := float64(k)*10000 + 10000
		e.Platform().Reset()
		r1, err := e.Run(Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: n / 2, PoolItems: n / 2})
		if err != nil {
			return false
		}
		e.Platform().Reset()
		r2, err := e.Run(Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: n, PoolItems: n})
		if err != nil {
			return false
		}
		return r2.Duration >= r1.Duration
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProxyThreadCostsCPUCapacity(t *testing.T) {
	// With the GPU in flight, the CPU loses the proxy fraction of one
	// core; CPU-side throughput in combined mode must be below the
	// CPU-alone figure even for compute-bound work at the same clock.
	spec := platform.DesktopSpec()
	spec.ProxyCoreFraction = 0.5
	spec.Policy.CPUTurboHz = spec.Policy.CPUBaseHz // pin clocks for a clean comparison
	spec.CPU.TurboHz = spec.CPU.BaseHz
	p, err := platform.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	alone := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, PoolItems: 2e6})
	p.Reset()
	combined := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: 40e6, PoolItems: 2e6})
	ratio := combined.CPUThroughput() / alone.CPUThroughput()
	want := (4 - 0.5) / 4.0
	if math.Abs(ratio-want) > 0.03 {
		t.Errorf("combined/alone CPU throughput = %v, want ≈%v (proxy cost)", ratio, want)
	}
}

func TestGPUSpeedFactorApplies(t *testing.T) {
	e := desktopEngine()
	base := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: 5e6})
	e.Platform().Reset()
	slow := run(t, e, Phase{Kernel: Kernel{Cost: computeCost(), GPUSpeedFactor: 0.25}, GPUItems: 5e6})
	ratio := base.GPUThroughput() / slow.GPUThroughput()
	if math.Abs(ratio-4) > 0.2 {
		t.Errorf("GPU speed factor 0.25 gave ratio %v, want 4", ratio)
	}
}

func TestSmallKernelOccupancyPenalty(t *testing.T) {
	// A kernel smaller than the GPU's hardware parallelism underfills
	// the machine for its entire run.
	e := desktopEngine()
	big := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: 22400})
	e.Platform().Reset()
	small := run(t, e, Phase{Kernel: Kernel{Cost: computeCost()}, GPUItems: 224})
	if small.GPUThroughput() > big.GPUThroughput()/5 {
		t.Errorf("tiny kernel throughput %v should be ≈10%% of full %v",
			small.GPUThroughput(), big.GPUThroughput())
	}
}

func TestFreqBandwidthScaleBounds(t *testing.T) {
	if got := device.FreqBandwidthScale(3.9e9, 3.9e9); got != 1 {
		t.Errorf("full-speed scale = %v, want 1", got)
	}
	if got := device.FreqBandwidthScale(0, 3.9e9); got != 0.2 {
		t.Errorf("zero-speed scale = %v, want floor 0.2", got)
	}
	if got := device.FreqBandwidthScale(5e9, 3.9e9); got != 1 {
		t.Errorf("overspeed scale = %v, want clamp 1", got)
	}
	mid := device.FreqBandwidthScale(1.95e9, 3.9e9)
	if math.Abs(mid-0.6) > 1e-9 {
		t.Errorf("half-speed scale = %v, want 0.6", mid)
	}
}

// TestRunAllocatesNothing pins the simulation loop, memos included, to
// zero heap allocations per phase and per idle gap.
func TestRunAllocatesNothing(t *testing.T) {
	e := desktopEngine()
	ph := Phase{Kernel: Kernel{Cost: memoryCost()}, GPUItems: 2e4, PoolItems: 2e4}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(ph); err != nil {
			t.Fatal(err)
		}
		e.RunIdle(200*time.Microsecond, nil)
	}); n != 0 {
		t.Errorf("Run + RunIdle allocated %v times per call, want 0", n)
	}
}

package engine

import (
	"errors"
	"testing"

	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
)

func faultKernel() Kernel {
	return Kernel{
		Name: "fk",
		Cost: device.CostProfile{FLOPs: 4, MemOps: 2, L3MissRatio: 0.1, Instructions: 10},
	}
}

func TestInjectedGPUBusyFailsDispatchThenRecovers(t *testing.T) {
	e := New(platform.Desktop())
	plan := faultinject.New(3)
	plan.Script(faultinject.GPUBusy, 2, 0)
	e.SetFaultPlan(plan)

	for i := 0; i < 2; i++ {
		_, err := e.Run(Phase{Kernel: faultKernel(), GPUItems: 1000, PoolItems: 1000})
		if !errors.Is(err, ErrGPUBusy) {
			t.Fatalf("dispatch %d err = %v, want ErrGPUBusy", i, err)
		}
	}
	res, err := e.Run(Phase{Kernel: faultKernel(), GPUItems: 1000, PoolItems: 1000})
	if err != nil {
		t.Fatalf("third dispatch should succeed: %v", err)
	}
	if res.GPUItems < 999 {
		t.Errorf("GPU retired %v items, want ~1000", res.GPUItems)
	}
}

func TestInjectedBusyLeavesSimulationUntouched(t *testing.T) {
	e := New(platform.Desktop())
	plan := faultinject.New(3)
	plan.Script(faultinject.GPUBusy, 1, 0)
	e.SetFaultPlan(plan)
	before := e.Platform().Clock.Now()
	if _, err := e.Run(Phase{Kernel: faultKernel(), GPUItems: 100}); !errors.Is(err, ErrGPUBusy) {
		t.Fatal(err)
	}
	if after := e.Platform().Clock.Now(); after != before {
		t.Errorf("failed dispatch advanced clock from %v to %v", before, after)
	}
}

func TestCPUOnlyPhaseUnaffectedByGPUFaults(t *testing.T) {
	e := New(platform.Desktop())
	plan := faultinject.New(3)
	plan.Script(faultinject.GPUBusy, 10, 0)
	e.SetFaultPlan(plan)
	res, err := e.Run(Phase{Kernel: faultKernel(), PoolItems: 1000})
	if err != nil {
		t.Fatalf("CPU-only phase must not consult GPU faults: %v", err)
	}
	if res.CPUItems < 999 {
		t.Errorf("CPU retired %v items, want ~1000", res.CPUItems)
	}
	if plan.Stats().Delivered[faultinject.GPUBusy] != 0 {
		t.Errorf("CPU-only phase consumed a GPU fault")
	}
}

func TestInjectedSlowGPUStretchesExecution(t *testing.T) {
	run := func(factor float64) float64 {
		e := New(platform.Desktop())
		if factor > 1 {
			plan := faultinject.New(3)
			plan.Script(faultinject.SlowGPU, 1, factor)
			e.SetFaultPlan(plan)
		}
		res, err := e.Run(Phase{Kernel: faultKernel(), GPUItems: 50000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration.Seconds()
	}
	base := run(1)
	slow := run(4)
	if slow < 2*base {
		t.Errorf("4x-slow GPU ran in %.6fs vs %.6fs baseline; want a clear slowdown", slow, base)
	}
}

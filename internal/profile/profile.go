// Package profile implements the paper's lightweight online profiling
// (§3.1, after Kaleem et al. PACT'14): at kernel start, the GPU proxy
// thread offloads a chunk of work sized to fill the GPU while the CPU
// workers keep draining the shared counter; when the GPU chunk
// completes, the proxy gathers how many items each device processed and
// in how long, yielding the combined-mode throughputs R_C and R_G plus
// the hardware-counter readings (L3 misses, instructions) that classify
// the workload.
//
// Profiling is work-conserving — every profiled item is real work — so
// its only overheads are the extra kernel launches and the final
// decision computation.
package profile

import (
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/hwc"
	"github.com/hetsched/eas/internal/wclass"
)

// Observation is what one profiling step measures.
type Observation struct {
	// RC and RG are the devices' combined-mode throughputs (items/s).
	RC, RG float64
	// CPUItems and GPUItems are the items each device processed during
	// the step.
	CPUItems, GPUItems float64
	// Duration is the step's wall (simulated) time.
	Duration time.Duration
	// EnergyJ is the package energy the step consumed (profiling is
	// real work, so its time and energy count toward the invocation).
	EnergyJ float64
	// Counters is the CPU hardware-counter delta over the step.
	Counters hwc.Counters
}

// MemoryIntensity returns the observed miss-per-load/store ratio.
func (o Observation) MemoryIntensity() float64 {
	return o.Counters.MemoryIntensity()
}

// Classify derives the workload category for the remaining iterations:
// memory-boundedness from the counters, short/long from the estimated
// alone-run times of the remaining work at the measured throughputs.
// It uses the paper's thresholds (100 ms, 0.33).
func (o Observation) Classify(remaining float64) wclass.Category {
	return o.ClassifyWith(remaining, wclass.ShortLongThreshold, wclass.MemoryBoundThreshold)
}

// ClassifyWith is Classify with explicit thresholds, for studying the
// sensitivity the paper leaves to future work.
func (o Observation) ClassifyWith(remaining float64, shortLong time.Duration, memBound float64) wclass.Category {
	estCPU := estDuration(remaining, o.RC)
	estGPU := estDuration(remaining, o.RG)
	return wclass.Category{
		Memory:   o.MemoryIntensity() > memBound,
		CPUShort: estCPU < shortLong,
		GPUShort: estGPU < shortLong,
	}
}

func estDuration(items, rate float64) time.Duration {
	if rate <= 0 {
		// An unmeasurable device counts as arbitrarily slow ("long").
		return time.Duration(1 << 62)
	}
	sec := items / rate
	if sec >= float64(1<<62)/1e9 {
		return time.Duration(1 << 62)
	}
	return time.Duration(sec * 1e9)
}

// Step runs one online profiling step on the engine: offload gpuChunk
// items to the GPU, let the CPU drain the pool concurrently, and stop
// the moment the GPU finishes. It returns the observation and the
// number of pool items left unprocessed.
func Step(e *engine.Engine, k engine.Kernel, gpuChunk, pool float64) (Observation, float64, error) {
	if gpuChunk <= 0 {
		return Observation{}, 0, fmt.Errorf("profile: non-positive GPU chunk %v", gpuChunk)
	}
	if pool < 0 {
		return Observation{}, 0, fmt.Errorf("profile: negative pool %v", pool)
	}
	res, err := e.Run(engine.Phase{
		Kernel:          k,
		GPUItems:        gpuChunk,
		PoolItems:       pool,
		StopWhenGPUDone: true,
	})
	if err != nil {
		return Observation{}, 0, err
	}
	obs := Observation{
		RC:       res.CPUThroughput(),
		RG:       res.GPUThroughput(),
		CPUItems: res.CPUItems,
		GPUItems: res.GPUItems,
		Duration: res.Duration,
		EnergyJ:  res.EnergyJ,
		Counters: res.Counters,
	}
	// A scripted lying-profile fault distorts the observed GPU
	// throughput (not the simulation): the decision layer sees a lie,
	// which is exactly what sanitization and hysteresis must survive.
	if f, ok := e.FaultPlan().Take(faultinject.ProfileLie); ok {
		obs.RG *= f
	}
	return obs, res.PoolRemaining, nil
}

// Merge combines two observations by item-weighted averaging of the
// throughputs and summing of the counters — the sample-weighted
// accumulation the paper borrows from [12].
func Merge(a, b Observation) Observation {
	out := Observation{
		CPUItems: a.CPUItems + b.CPUItems,
		GPUItems: a.GPUItems + b.GPUItems,
		Duration: a.Duration + b.Duration,
		EnergyJ:  a.EnergyJ + b.EnergyJ,
		Counters: hwc.Counters{
			L3Misses:     a.Counters.L3Misses + b.Counters.L3Misses,
			Instructions: a.Counters.Instructions + b.Counters.Instructions,
			MemOps:       a.Counters.MemOps + b.Counters.MemOps,
		},
	}
	out.RC = weighted(a.RC, a.CPUItems, b.RC, b.CPUItems)
	out.RG = weighted(a.RG, a.GPUItems, b.RG, b.GPUItems)
	return out
}

func weighted(v1, w1, v2, w2 float64) float64 {
	if w1+w2 <= 0 {
		return 0
	}
	return (v1*w1 + v2*w2) / (w1 + w2)
}

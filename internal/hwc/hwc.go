// Package hwc emulates the hardware performance counters the paper
// reads through the Intel Performance Counter Monitor during online
// profiling: L3 (last-level) cache misses and total instructions
// retired on the CPU cores. The simulation engine feeds the counters
// from each kernel's cost profile as CPU items retire; the profiler
// consumes them exactly as it would consume PCM readings.
//
// Real PCM counters multiplex and drop: a scripted fault plan can make
// Snapshot return a frozen (dropped) or NaN-corrupted reading, which
// the profile sanitizer upstream must survive.
package hwc

import (
	"math"

	"github.com/hetsched/eas/internal/faultinject"
)

// Counters is a snapshot of the monitored CPU counters.
type Counters struct {
	// L3Misses is the number of last-level cache misses.
	L3Misses float64
	// Instructions is the total instructions retired.
	Instructions float64
	// MemOps is the load/store instructions retired. The paper's
	// memory-bound classification divides misses by load/store count.
	MemOps float64
}

// Sub returns c - o, the counter deltas over an interval.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		L3Misses:     c.L3Misses - o.L3Misses,
		Instructions: c.Instructions - o.Instructions,
		MemOps:       c.MemOps - o.MemOps,
	}
}

// MemoryIntensity returns the miss-per-load/store ratio the paper
// thresholds at 0.33 to classify memory-bound workloads. Returns 0 when
// no memory operations were observed.
func (c Counters) MemoryIntensity() float64 {
	if c.MemOps <= 0 {
		return 0
	}
	return c.L3Misses / c.MemOps
}

// Monitor accumulates counters. The engine calls Account as CPU work
// retires; the profiler snapshots around its measurement window.
type Monitor struct {
	c Counters
	// faults optionally corrupts what Snapshot reports (never what the
	// monitor accumulates — the fault is in the reading, not the work).
	faults *faultinject.Plan
	// frozen is the reading a dropped counter keeps returning.
	frozen    Counters
	hasFrozen bool
}

// SetFaultPlan attaches a fault-injection plan consulted on every
// Snapshot (nil detaches).
func (m *Monitor) SetFaultPlan(p *faultinject.Plan) { m.faults = p }

// Account adds the counter contributions of `items` retired work items
// with the given per-item costs.
func (m *Monitor) Account(items, missesPerItem, instrPerItem, memOpsPerItem float64) {
	if items <= 0 {
		return
	}
	m.c.L3Misses += items * missesPerItem
	m.c.Instructions += items * instrPerItem
	m.c.MemOps += items * memOpsPerItem
}

// Snapshot returns the current counter values — or, under an active
// fault plan, a degraded reading: a dropped counter repeats the last
// frozen value (counters stop advancing), a corrupt one returns NaNs.
func (m *Monitor) Snapshot() Counters {
	if _, ok := m.faults.Take(faultinject.HWCCorrupt); ok {
		nan := math.NaN()
		return Counters{L3Misses: nan, Instructions: nan, MemOps: nan}
	}
	if _, ok := m.faults.Take(faultinject.HWCDrop); ok {
		if !m.hasFrozen {
			m.frozen = m.c
			m.hasFrozen = true
		}
		return m.frozen
	}
	m.hasFrozen = false
	return m.c
}

// Raw returns the true accumulated counters, bypassing any fault plan.
// State capture (platform snapshots for rollback) must use Raw: faults
// corrupt readings, never the machine state itself.
func (m *Monitor) Raw() Counters { return m.c }

// Restore rolls the counters back to a previous Snapshot.
func (m *Monitor) Restore(c Counters) { m.c = c }

// Reset zeroes the counters.
func (m *Monitor) Reset() { m.c = Counters{} }

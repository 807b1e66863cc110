package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/powerchar"
)

// workload is one seeded traffic mix. Every input is drawn from the
// seed when the workload is built, before anything is timed.
type workload interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// rateHint is the expected operations per second per client; it
	// only sizes the latency buffers.
	rateHint() int
	// blocks is how many equal time blocks a measured phase is cut into.
	blocks() int
	// setUp builds fresh program state up to the first measured
	// operation: characterization, runtime construction and warm-up.
	// observed=false builds the same configuration without an Observer.
	setUp(tr *tracer, observed bool) error
	// op runs client c's i-th operation, checks its output and returns
	// the duration of the public call alone.
	op(c, i int, tr *tracer) (time.Duration, error)
	// finish runs the checks that need the whole phase, releases the
	// program state, and returns one error per failed check together
	// with the number of checks made.
	finish(tr *tracer) (checks int, failed []error)
}

// runtimeWorkload is a workload driven through eas.Runtime; the traced
// run reads its observer and per-client decision counters.
type runtimeWorkload interface {
	workload
	observer() *eas.Observer
	runtime() *eas.Runtime
	// counts sums the per-client decision counters since setUp.
	counts() opCounts
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "repro":
		return newRepro(o.seed), nil
	case "decide":
		return newDecide(o.seed)
	case "serve":
		seconds := o.seconds
		if o.smoke {
			seconds = 0
		}
		return newServe(o.seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want repro, decide or serve)", o.workload)
}

// opCounts are per-client tallies of what the runtime reported.
type opCounts struct {
	ops, profiled, fastPath, coalesced int
	// edpSum and edpN accumulate Report.MetricValue over each client's
	// first qualityOps operations.
	edpSum float64
	edpN   int
}

// qualityOps bounds the operations whose simulated EDP enters
// sim_edp_mean, so the metric covers the same inputs however fast the
// program runs.
const qualityOps = 16384

// clientCounts pads each client's counters onto their own cache lines.
type clientCounts struct {
	opCounts
	_ [64]byte
}

func (c *clientCounts) record(i int, rep *eas.Report) {
	c.ops++
	if rep.Profiled {
		c.profiled++
	}
	if rep.FastPath {
		c.fastPath++
	}
	if rep.Coalesced {
		c.coalesced++
	}
	if i < qualityOps {
		c.edpSum += rep.MetricValue
		c.edpN++
	}
}

func sumCounts(cs []clientCounts) opCounts {
	var t opCounts
	for i := range cs {
		c := &cs[i].opCounts
		t.ops += c.ops
		t.profiled += c.profiled
		t.fastPath += c.fastPath
		t.coalesced += c.coalesced
		t.edpSum += c.edpSum
		t.edpN += c.edpN
	}
	return t
}

// checkReport applies the invariants every runtime operation must
// satisfy: a ratio in [0,1], every item executed on some device, and
// per-domain energies that fit inside the package total.
func checkReport(rep *eas.Report, n int) error {
	if !(rep.Alpha >= 0 && rep.Alpha <= 1) {
		return checkf("alpha %v outside [0,1]", rep.Alpha)
	}
	if got := rep.CPUItems + rep.GPUItems; math.Abs(got-float64(n)) > 1e-9*float64(n) {
		return checkf("CPUItems+GPUItems = %v, want %d", got, n)
	}
	parts := rep.CPUEnergyJ + rep.GPUEnergyJ + rep.DRAMEnergyJ
	if !(rep.EnergyJ > 0) || parts > rep.EnergyJ*(1+1e-9) {
		return checkf("domain energies %v exceed package energy %v", parts, rep.EnergyJ)
	}
	if math.IsNaN(rep.MetricValue) || math.IsInf(rep.MetricValue, 0) || rep.MetricValue <= 0 {
		return checkf("metric value %v", rep.MetricValue)
	}
	return nil
}

// characterize measures the platform's power model through the public
// API. The process-wide model cache is emptied first, so every set-up
// pays for a real characterization instead of a cache hit.
func characterize(tr *tracer, p *eas.Platform) (*eas.PowerModel, error) {
	powerchar.DefaultCache = powerchar.NewCache()
	sp := tr.begin(0, "Characterize", -1)
	m, err := eas.Characterize(p)
	tr.end(0, sp)
	return m, err
}

// newRuntime wraps eas.NewRuntime in a harness span.
func newRuntime(tr *tracer, p *eas.Platform, cfg eas.Config) (*eas.Runtime, error) {
	sp := tr.begin(0, "NewRuntime", -1)
	rt, err := eas.NewRuntime(p, cfg)
	tr.end(0, sp)
	return rt, err
}

// closeRuntime wraps Runtime.Close in a harness span.
func closeRuntime(tr *tracer, rt *eas.Runtime) error {
	sp := tr.begin(0, "Close", -1)
	err := rt.Close()
	tr.end(0, sp)
	return err
}

// parallelFor wraps Runtime.ParallelForCtx in a harness span and
// returns the call's duration.
func parallelFor(ctx context.Context, tr *tracer, c, op int, rt *eas.Runtime, k eas.Kernel, n int) (*eas.Report, time.Duration, error) {
	sp := tr.begin(c, "ParallelForCtx", op)
	t0 := time.Now()
	rep, err := rt.ParallelForCtx(ctx, k, n)
	d := time.Since(t0)
	tr.end(c, sp)
	return rep, d, err
}

// scratchDir returns the benchmark's scratch directory, creating it.
func scratchDir() (string, error) {
	const dir = ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// firstError keeps the first error any client reports.
type firstError struct{ v atomic.Pointer[error] }

func (f *firstError) set(err error) { f.v.CompareAndSwap(nil, &err) }

func (f *firstError) get() error {
	if p := f.v.Load(); p != nil {
		return *p
	}
	return nil
}

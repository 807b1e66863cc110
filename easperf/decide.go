package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/microbench"
	"github.com/hetsched/eas/internal/platform"
)

// decideWorkload makes a fresh scheduling decision on every operation:
// one client, kernels without bodies, ReprofileEvery 1 and a 0.0005 α
// step, with an Observer attached. It stresses profiling, the α search
// and the observer's decision audit.
type decideWorkload struct {
	kernels []decideKernel
	ops     []decideOp

	rt    *eas.Runtime
	obs   *eas.Observer
	tally [1]clientCounts
}

// decideKernel is one kernel of the mix: a cost profile taken from the
// characterization micro-benchmark of its workload class, scaled by a
// fixed per-variant factor.
type decideKernel struct {
	k eas.Kernel
	// baseN is the class's sized iteration count; ops draw n around it.
	baseN int
	// category is the class the micro-benchmark was sized for.
	category string
	// rc and rg are the probed alone-run throughputs (items/s).
	rc, rg float64
}

type decideOp struct {
	kernel int32
	n      int32
}

const (
	decideVariants = 4
	decideOpsLen   = 1 << 14
	decideStep     = 0.0005
)

// decideScale is the per-variant cost scale; fixed so that only the op
// sequence depends on the seed.
var decideScale = [decideVariants]float64{0.9, 0.97, 1.03, 1.1}

func newDecide(seed int64) (*decideWorkload, error) {
	suite, err := microbench.Suite(platform.DesktopSpec())
	if err != nil {
		return nil, err
	}
	w := &decideWorkload{}
	for _, b := range suite {
		for v, s := range decideScale {
			k := costKernel(b.Kernel.Cost)
			k.Name = fmt.Sprintf("decide-%s-%d", b.Category.Key(), v)
			k.FLOPsPerItem *= s
			k.MemOpsPerItem *= s
			k.InstructionsPerItem *= s
			w.kernels = append(w.kernels, decideKernel{
				k:        k,
				baseN:    b.N,
				category: b.Category.Key(),
				rc:       float64(b.N) / b.CPUAloneSeconds,
				rg:       float64(b.N) / b.GPUAloneSeconds,
			})
		}
	}
	// Operation i uses class i%8, so every class takes the same share
	// of every run; the seed picks the variant and n within ±15%.
	rng := rand.New(rand.NewSource(seed))
	w.ops = make([]decideOp, decideOpsLen)
	for i := range w.ops {
		cls := i % len(suite)
		ki := cls*decideVariants + rng.Intn(decideVariants)
		n := float64(w.kernels[ki].baseN) * (0.85 + 0.3*rng.Float64())
		w.ops[i] = decideOp{kernel: int32(ki), n: int32(n)}
	}
	return w, nil
}

func (w *decideWorkload) clients() int  { return 1 }
func (w *decideWorkload) rateHint() int { return 40000 }
func (w *decideWorkload) blocks() int   { return 20 }

func (w *decideWorkload) observer() *eas.Observer { return w.obs }
func (w *decideWorkload) runtime() *eas.Runtime   { return w.rt }
func (w *decideWorkload) counts() opCounts        { return sumCounts(w.tally[:]) }

func (w *decideWorkload) setUp(tr *tracer, observed bool) error {
	p := eas.DesktopPlatform()
	model, err := characterize(tr, p)
	if err != nil {
		return err
	}
	w.obs = nil
	if observed {
		w.obs = eas.NewObserver(eas.ObserverOptions{RingCapacity: tr.ringCapacity()})
	}
	w.rt, err = newRuntime(tr, p, eas.Config{
		Model:          model,
		AlphaStep:      decideStep,
		ReprofileEvery: 1,
		Observer:       w.obs,
	})
	if err != nil {
		return err
	}
	// Warm-up: every kernel decides once, and together they must cover
	// all eight workload classes.
	seen := map[string]bool{}
	for _, dk := range w.kernels {
		rep, _, err := parallelFor(context.Background(), tr, 0, -1, w.rt, dk.k, dk.baseN)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", dk.k.Name, err)
		}
		seen[rep.Category] = true
	}
	if len(seen) != 8 {
		return fmt.Errorf("warm-up covered %d workload classes, want 8", len(seen))
	}
	w.tally = [1]clientCounts{}
	return nil
}

func (w *decideWorkload) op(c, i int, tr *tracer) (time.Duration, error) {
	o := w.ops[i%len(w.ops)]
	n := int(o.n)
	rep, d, err := parallelFor(context.Background(), tr, c, i, w.rt, w.kernels[o.kernel].k, n)
	if err != nil {
		return d, err
	}
	if err := checkReport(rep, n); err != nil {
		return d, err
	}
	if !rep.Profiled {
		return d, checkf("op %d replayed the table; every decide op must profile", i)
	}
	w.tally[c].record(i, rep)
	return d, nil
}

func (w *decideWorkload) finish(tr *tracer) (int, []error) {
	var failed []error
	if err := closeRuntime(tr, w.rt); err != nil {
		failed = append(failed, fmt.Errorf("close: %w", err))
	}
	return 1, failed
}

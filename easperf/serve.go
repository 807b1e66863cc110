package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/device"
	"github.com/hetsched/eas/internal/microbench"
)

// serveWorkload is the production configuration: nproc clients, tiered
// admission, coalesced decisions with the confidence fast path, a
// durable α-table WAL, pooled reports and an Observer with the flight
// recorder armed. Traffic comes from 16 tenants over Zipf-popular
// kernels whose bodies run a saxpy; about 2% of operations use a kernel
// name never seen before.
type serveWorkload struct {
	kernels []eas.Kernel
	ctxs    []context.Context
	cl      []*serveClient

	rt       *eas.Runtime
	obs      *eas.Observer
	stateDir string
	tally    []clientCounts
}

const (
	serveTenants   = 16
	serveKernels   = 48
	serveOpsLen    = 1 << 16
	serveFreshPct  = 2
	serveZipfS     = 1.1
	serveMinN      = 2304 // above the desktop GPU profile size (2240)
	serveMaxN      = 9216
	serveStampMask = 63 // check the stamps of one op in 64
	// serveCompactEvery is the WAL records between compactions.
	serveCompactEvery = 1 << 15
	// serveRate is the op rate per client the never-seen kernel names
	// are sized for; well above what the runtime reaches.
	serveRate = 50000
)

// serveClient holds one client's pre-drawn operations, its kernels
// (bound to its own body) and the buffers the body works on.
type serveClient struct {
	ops   []serveOp
	kern  []eas.Kernel
	fresh []eas.Kernel
	next  int

	x, y  []float32
	stamp []int32
	// opID is the stamp the body adds at every index it runs.
	opID int32
}

type serveOp struct {
	ctx    uint8 // index into serveWorkload.ctxs
	kernel int16 // -1: next never-seen kernel
	n      int32
}

// serveProfiles are the base cost profiles kernels are scaled from.
var serveProfiles = []device.CostProfile{
	microbench.ComputeProfile(),
	microbench.ComputeDivergentProfile(),
	microbench.MemoryProfile(),
	microbench.MemoryDivergentProfile(),
	microbench.MemoryStreamProfile(),
}

// serveKernel is kernel j of the mix: a fixed function of j, so only
// the traffic depends on the seed.
func serveKernel(name string, j int) eas.Kernel {
	k := costKernel(serveProfiles[j%len(serveProfiles)])
	s := 1 + 0.04*float64(j/len(serveProfiles))
	k.Name = name
	k.FLOPsPerItem *= s
	k.MemOpsPerItem *= s
	k.InstructionsPerItem *= s
	return k
}

// serveN is the iteration count of kernel j, spread log-uniformly over
// [serveMinN, serveMaxN]. A kernel keeps its n on every operation: the
// runtime's learned α depends on the n its (re)profiles saw, and with n
// drawn per operation the seed would decide how the popular kernels
// split their work, and with it the run's throughput.
func serveN(j int) int {
	frac := math.Mod(float64(j)*0.6180339887, 1)
	return int(serveMinN * math.Pow(float64(serveMaxN)/serveMinN, frac))
}

// newServe draws the traffic from seed; seconds (0 for a few
// operations only) sizes the pool of never-seen kernel names.
func newServe(seed int64, seconds float64) (*serveWorkload, error) {
	w := &serveWorkload{}
	for j := 0; j < serveKernels; j++ {
		w.kernels = append(w.kernels, serveKernel(fmt.Sprintf("serve-%02d", j), j))
	}
	base := context.Background()
	for t := 0; t < serveTenants; t++ {
		for c := eas.Class(0); c < 3; c++ {
			ctx := eas.WithClass(eas.WithTenant(base, fmt.Sprintf("tenant-%02d", t)), c)
			w.ctxs = append(w.ctxs, ctx)
		}
	}
	// Zipf popularity over kernel ranks: P(j) ∝ 1/(j+1)^s.
	cdf := make([]float64, serveKernels)
	var sum float64
	for j := range cdf {
		sum += 1 / math.Pow(float64(j+1), serveZipfS)
		cdf[j] = sum
	}
	nclients := runtime.NumCPU()
	freshPerClient := max(64, int(serveRate*seconds)*serveFreshPct/100)
	for c := 0; c < nclients; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		sc := &serveClient{
			ops:   make([]serveOp, serveOpsLen),
			x:     make([]float32, serveMaxN),
			y:     make([]float32, serveMaxN),
			stamp: make([]int32, serveMaxN),
		}
		for i := range sc.x {
			sc.x[i] = float32(i%97) / 97
		}
		body := func(i int) {
			sc.y[i] = 0.5*sc.x[i] + sc.y[i]
			sc.stamp[i] += sc.opID
		}
		for _, k := range w.kernels {
			k.Body = body
			sc.kern = append(sc.kern, k)
		}
		for f := 0; f < freshPerClient; f++ {
			k := serveKernel(fmt.Sprintf("fresh-c%d-%06d", c, f), f)
			k.Body = body
			sc.fresh = append(sc.fresh, k)
		}
		for i := range sc.ops {
			class := 0 // 60% interactive, 30% batch, 10% background
			switch r := rng.Float64(); {
			case r >= 0.9:
				class = 2
			case r >= 0.6:
				class = 1
			}
			kernel := int16(-1)
			if rng.Intn(100) >= serveFreshPct {
				u := rng.Float64() * sum
				j := 0
				for cdf[j] < u {
					j++
				}
				kernel = int16(j)
			}
			j := int(kernel)
			if kernel < 0 {
				// A never-seen kernel runs once; any n in range will do.
				j = serveKernels + i%serveKernels
			}
			sc.ops[i] = serveOp{
				ctx:    uint8(rng.Intn(serveTenants)*3 + class),
				kernel: kernel,
				n:      int32(serveN(j)),
			}
		}
		w.cl = append(w.cl, sc)
	}
	return w, nil
}

func (w *serveWorkload) clients() int  { return len(w.cl) }
func (w *serveWorkload) rateHint() int { return 30000 }
func (w *serveWorkload) blocks() int   { return 20 }

func (w *serveWorkload) observer() *eas.Observer { return w.obs }
func (w *serveWorkload) runtime() *eas.Runtime   { return w.rt }
func (w *serveWorkload) counts() opCounts        { return sumCounts(w.tally) }

func (w *serveWorkload) setUp(tr *tracer, observed bool) error {
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	w.stateDir, err = os.MkdirTemp(scratch, "state-")
	if err != nil {
		return err
	}
	if err := w.build(tr, observed); err != nil {
		if w.rt != nil {
			w.rt.Close()
		}
		os.RemoveAll(w.stateDir)
		return err
	}
	return nil
}

// build constructs the runtime in w.stateDir and warms it up.
func (w *serveWorkload) build(tr *tracer, observed bool) error {
	w.rt = nil
	p := eas.DesktopPlatform()
	model, err := characterize(tr, p)
	if err != nil {
		return err
	}
	w.obs = nil
	if observed {
		w.obs = eas.NewObserver(eas.ObserverOptions{
			RingCapacity: tr.ringCapacity(),
			Flight:       eas.FlightPolicy{Enable: true},
		})
	}
	w.rt, err = newRuntime(tr, p, eas.Config{
		Model:          model,
		ReprofileEvery: 8,
		Admission:      eas.AdmissionPolicy{Enabled: true},
		Decision:       eas.DecisionPolicy{Coalesce: true, MinConfidence: 32},
		// Compaction fsyncs and rewrites the whole table; at the
		// default (every 1024 records, about 30 a second here) host
		// disk latency would dominate the run.
		State:    eas.StatePolicy{Path: filepath.Join(w.stateDir, "alpha.state"), CompactEvery: serveCompactEvery},
		Reuse:    true,
		Observer: w.obs,
	})
	if err != nil {
		return err
	}
	// Warm-up: every kernel of the mix profiles once, at its own n.
	for j, k := range w.cl[0].kern {
		rep, _, err := parallelFor(w.ctxs[0], tr, 0, -1, w.rt, k, serveN(j))
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", k.Name, err)
		}
		if !rep.Profiled {
			return fmt.Errorf("warm-up %s (kernel %d) did not profile", k.Name, j)
		}
		w.rt.ReleaseReport(rep)
	}
	for _, sc := range w.cl {
		sc.next = 0
	}
	w.tally = make([]clientCounts, len(w.cl))
	return nil
}

func (w *serveWorkload) op(c, i int, tr *tracer) (time.Duration, error) {
	sc := w.cl[c]
	o := sc.ops[i%len(sc.ops)]
	var k eas.Kernel
	if o.kernel >= 0 {
		k = sc.kern[o.kernel]
	} else {
		k = sc.fresh[sc.next%len(sc.fresh)]
		sc.next++
	}
	n := int(o.n)
	sampled := i&serveStampMask == 0
	sc.opID = int32(i + 1)
	if sampled {
		clear(sc.stamp[:n])
	}
	rep, d, err := parallelFor(w.ctxs[o.ctx], tr, c, i, w.rt, k, n)
	if err != nil {
		return d, err
	}
	defer w.rt.ReleaseReport(rep)
	if err := checkReport(rep, n); err != nil {
		return d, err
	}
	if sampled {
		for j, s := range sc.stamp[:n] {
			if s != sc.opID {
				return d, checkf("op %d: index %d stamped %d, want %d (each index exactly once)", i, j, s, sc.opID)
			}
		}
	}
	w.tally[c].record(i, rep)
	return d, nil
}

func (w *serveWorkload) finish(tr *tracer) (int, []error) {
	var failed []error
	if shed := w.rt.AdmissionStats().Shed(); shed != 0 {
		failed = append(failed, checkf("admission shed %d invocations", shed))
	}
	if w.obs != nil {
		if dumps := w.obs.FlightDumps(); dumps != 0 {
			failed = append(failed, checkf("flight recorder dumped %d incidents", dumps))
		}
	}
	if w.rt.StateDisabled() {
		failed = append(failed, checkf("state persistence disabled itself"))
	}
	if err := closeRuntime(tr, w.rt); err != nil {
		failed = append(failed, fmt.Errorf("close: %w", err))
	}
	if err := os.RemoveAll(w.stateDir); err != nil {
		failed = append(failed, errors.Join(errors.New("removing state directory"), err))
	}
	return 4, failed
}

// costKernel converts a cost profile into a public kernel description.
func costKernel(c device.CostProfile) eas.Kernel {
	return eas.Kernel{
		FLOPsPerItem:        c.FLOPs,
		MemOpsPerItem:       c.MemOps,
		L3MissRatio:         c.L3MissRatio,
		Divergence:          c.Divergence,
		InstructionsPerItem: c.Instructions,
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hetsched/eas/internal/cl"
	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/statestore"
	"github.com/hetsched/eas/internal/wclass"
	"github.com/hetsched/eas/internal/workloads"
	"github.com/hetsched/eas/internal/ws"
)

// drives holds the microdrive results: single layers called directly
// on the inputs of the workload that exercises them, drawn from the
// run's seed.
type drives struct {
	cellMs             map[string]float64
	cellsSerialMs      float64
	parSpeedup         float64
	engineNsPerSimMs   float64
	engineAllocsPerRun float64
	bestAlphaUs        float64
	wsNsPerItem        float64
	clNsPerItem        float64
	appendUs           float64
}

// microdriveOps is how many workload operations each runtime-layer
// microdrive replays.
const microdriveOps = 2048

func microdrives(o options, tr *tracer) (drives, error) {
	var d drives
	nops := microdriveOps
	figs := figures
	if o.smoke {
		nops, figs = 8, figures[:1]
	}
	repro := newRepro(o.seed)
	if err := d.driveSched(tr, repro, figs); err != nil {
		return d, err
	}
	if err := d.driveEngine(repro.seeds[0], o.smoke); err != nil {
		return d, err
	}
	decide, err := newDecide(o.seed)
	if err != nil {
		return d, err
	}
	if err := d.driveBestAlpha(decide, nops); err != nil {
		return d, err
	}
	serve, err := newServe(o.seed, 0)
	if err != nil {
		return d, err
	}
	if err := d.driveFunctional(serve.cl[0], nops); err != nil {
		return d, err
	}
	return d, d.driveStatestore(serve.cl[0], nops)
}

// driveSched runs every cell of each figure one after another through
// sched.Strategy.Run, at the seed of the figure's first repro
// operation, then evaluates the same figure through report.EvaluateCtx,
// whose parallel fan-out the serial total is compared against.
func (d *drives) driveSched(tr *tracer, repro *reproWorkload, figs []figure) error {
	easOpts := core.Options{GrowProfileChunk: true, ConvergeTol: 0.08} // report's defaults
	strategies := []sched.Strategy{sched.Oracle(0.1), sched.EAS(easOpts), sched.Perf(easOpts), sched.CPUOnly(), sched.GPUOnly()}
	total := map[string]time.Duration{}
	cells := map[string]int{}
	var serial, parallel time.Duration
	for fi, f := range figs {
		seed := repro.seeds[fi]
		spec, ok := platform.Presets(f.platform)
		if !ok {
			return fmt.Errorf("unknown platform %q", f.platform)
		}
		model, err := powerchar.Cached(context.Background(), spec, powerchar.Options{})
		if err != nil {
			return err
		}
		metric, err := metrics.ByName(f.metric)
		if err != nil {
			return err
		}
		for _, wl := range workloads.ForPlatform(spec.Name) {
			for _, s := range strategies {
				t0 := time.Now()
				res, err := s.Run(context.Background(), wl, spec, model, metric, seed)
				el := time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", s.Name(), wl.Abbrev, err)
				}
				if !finitePos(res.Value) {
					return checkf("%s on %s: value %v", s.Name(), wl.Abbrev, res.Value)
				}
				total[s.Name()] += el
				cells[s.Name()]++
				serial += el
			}
		}
		_, el, err := evaluate(tr, 0, -1, f, seed)
		if err != nil {
			return err
		}
		parallel += el
	}
	d.cellMs = map[string]float64{}
	for name, t := range total {
		d.cellMs[name] = ms(t) / float64(cells[name])
	}
	d.cellsSerialMs = ms(serial) / float64(len(figs))
	d.parSpeedup = float64(serial) / float64(parallel)
	return nil
}

// driveEngine replays the desktop workloads' invocations at a 50/50
// split through engine.Engine.Run on one platform.
func (d *drives) driveEngine(seed int64, smoke bool) error {
	spec := platform.DesktopSpec()
	perWorkload := 300
	if smoke {
		perWorkload = 4
	}
	var phases []engine.Phase
	for _, wl := range workloads.ForPlatform(spec.Name) {
		invs, err := wl.Schedule(spec.Name, seed)
		if err != nil {
			return err
		}
		for _, inv := range invs[:min(len(invs), perWorkload)] {
			n := float64(inv.N)
			phases = append(phases, engine.Phase{Kernel: inv.Kernel, GPUItems: n / 2, PoolItems: n / 2})
		}
	}
	p, err := platform.New(spec)
	if err != nil {
		return err
	}
	eng := engine.New(p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sim time.Duration
	t0 := time.Now()
	for _, ph := range phases {
		res, err := eng.Run(ph)
		if err != nil {
			return err
		}
		sim += res.Duration
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	d.engineNsPerSimMs = float64(wall.Nanoseconds()) / ms(sim)
	d.engineAllocsPerRun = float64(after.Mallocs-before.Mallocs) / float64(len(phases))
	return nil
}

// driveBestAlpha runs core.BestAlpha on the characterized curve of
// each decide operation's class, at decide's α step.
func (d *drives) driveBestAlpha(w *decideWorkload, nops int) error {
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		return err
	}
	type input struct {
		curve powerchar.Curve
		tm    core.TimeModel
		n     float64
	}
	in := make([]input, nops)
	for i := range in {
		o := w.ops[i%len(w.ops)]
		k := w.kernels[o.kernel]
		cat, err := wclass.ParseKey(k.category)
		if err != nil {
			return err
		}
		curve, ok := model.Curve(cat)
		if !ok {
			return fmt.Errorf("no power curve for %s", k.category)
		}
		in[i] = input{curve, core.TimeModel{RC: k.rc, RG: k.rg}, float64(o.n)}
	}
	var sink float64
	t0 := time.Now()
	for _, x := range in {
		a, _ := core.BestAlpha(x.curve, x.tm, x.n, metrics.EDP, decideStep)
		sink += a
	}
	el := time.Since(t0)
	if !(sink >= 0 && sink <= float64(nops)) {
		return checkf("BestAlpha returned ratios outside [0,1]")
	}
	d.bestAlphaUs = us(el) / float64(nops)
	return nil
}

// driveFunctional runs serve's saxpy body over each operation's n items,
// once through ws.Pool.ParallelFor and once through
// cl.CommandQueue.EnqueueNDRange.
func (d *drives) driveFunctional(sc *serveClient, nops int) error {
	body := sc.kern[0].Body
	var items int
	for i := 0; i < nops; i++ {
		items += int(sc.ops[i%len(sc.ops)].n)
	}
	pool := ws.NewPool(0)
	t0 := time.Now()
	for i := 0; i < nops; i++ {
		if err := pool.ParallelFor(int(sc.ops[i%len(sc.ops)].n), 0, body); err != nil {
			return err
		}
	}
	d.wsNsPerItem = float64(time.Since(t0).Nanoseconds()) / float64(items)

	p, err := platform.New(platform.DesktopSpec())
	if err != nil {
		return err
	}
	ctx := cl.NewContext(p)
	defer ctx.Release()
	q := cl.NewCommandQueue(ctx)
	k := cl.Kernel{Name: "saxpy", Body: body}
	t0 = time.Now()
	for i := 0; i < nops; i++ {
		ev, err := q.EnqueueNDRange(k, 0, int(sc.ops[i%len(sc.ops)].n))
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
	}
	d.clNsPerItem = float64(time.Since(t0).Nanoseconds()) / float64(items)
	return nil
}

// driveStatestore appends one accumulate record per serve operation to
// a fresh store through statestore.Store.Append.
func (d *drives) driveStatestore(sc *serveClient, nops int) error {
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := statestore.Open(filepath.Join(dir, "alpha.state"), statestore.Options{})
	if err != nil {
		return err
	}
	at := time.Unix(1_700_000_000, 0)
	recs := make([]statestore.Record, nops)
	for i := range recs {
		o := sc.ops[i%len(sc.ops)]
		name := "fresh"
		if o.kernel >= 0 {
			name = sc.kern[o.kernel].Name
		}
		recs[i] = statestore.Record{Op: statestore.OpAccum, Kernel: name, Alpha: 0.5, Items: float64(o.n), At: at}
	}
	t0 := time.Now()
	for _, r := range recs {
		if _, err := st.Append(r); err != nil {
			st.Close()
			return err
		}
	}
	d.appendUs = us(time.Since(t0)) / float64(nops)
	return st.Close()
}

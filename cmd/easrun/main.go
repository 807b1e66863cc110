// Command easrun executes one of the twelve benchmark workloads under
// one scheduling strategy and prints the measured totals — handy for
// exploring individual configurations outside the full evaluation grid.
//
// Usage:
//
//	easrun -workload CC [-platform desktop] [-strategy EAS] [-metric edp]
//	       [-alpha 0.5] [-seed N]
//
// Strategies: CPU, GPU, PERF, EAS, Oracle, fixed (with -alpha).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"github.com/hetsched/eas/internal/core"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/report"
	"github.com/hetsched/eas/internal/sched"
	"github.com/hetsched/eas/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "workload abbreviation (BH BFS CC FD MB SL SP BS MM NB RT SM)")
	platformName := flag.String("platform", "desktop", "platform preset: desktop or tablet")
	strategy := flag.String("strategy", "EAS", "CPU, GPU, PERF, EAS, Oracle, or fixed")
	metricName := flag.String("metric", "edp", "energy metric: energy, edp, or ed2p")
	alpha := flag.Float64("alpha", 0.5, "offload ratio for -strategy fixed")
	seed := flag.Int64("seed", report.DefaultSeed, "workload schedule seed")
	detail := flag.Bool("detail", false, "print the full per-workload analysis (α landscape, all strategies, EAS decisions, energy breakdown)")
	svgDir := flag.String("svg", "", "with -detail: write the α landscape chart into this directory")
	modelCache := flag.String("model-cache", "", "JSON file persisting characterization models across invocations (loaded at start, saved on exit)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run's scheduling decisions to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/trace on this HOST:PORT while the run executes")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder and write incident dumps (JSON) into this directory on anomaly triggers")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr: also mount Go pprof profiling endpoints under /debug/pprof/")
	statePath := flag.String("state", "", "persist the learned α table to FILE (WAL at FILE.wal): recovered at start so repeat runs skip re-profiling, flushed at exit")
	flag.Parse()

	var observer *obs.Observer
	var ring *obs.RingSink
	if *traceOut != "" || *metricsAddr != "" || *flightDir != "" {
		ring = obs.NewRingSink(obs.DefaultRingCapacity)
		observer = obs.New(ring, nil)
		if *flightDir != "" {
			flight := observer.AttachFlight(obs.FlightPolicy{Dir: *flightDir})
			defer func() {
				if n := flight.Dumps(); n > 0 {
					fmt.Fprintf(os.Stderr, "easrun: flight recorder wrote %d incident dump(s) to %s\n", n, *flightDir)
				}
			}()
		}
		if *metricsAddr != "" {
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				fail(err)
			}
			srv := &http.Server{Handler: obs.NewHTTPHandlerOpts(obs.HTTPOptions{
				Registry:    observer.Registry(),
				Ring:        ring,
				Observer:    observer,
				EnablePprof: *pprofOn,
			})}
			defer srv.Close()
			go func() { _ = srv.Serve(ln) }()
			fmt.Fprintf(os.Stderr, "easrun: serving metrics at http://%s/metrics (trace at /debug/trace)\n", ln.Addr())
		}
		if *traceOut != "" {
			path := *traceOut
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					fail(err)
				}
				if err := obs.WriteChromeTrace(f, ring.Snapshot()); err != nil {
					f.Close()
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(fmt.Errorf("trace-out %s: %w", path, err))
				}
				fmt.Fprintf(os.Stderr, "easrun: wrote Perfetto trace to %s\n", path)
			}()
		}
	}

	if *modelCache != "" {
		// Best-effort load: a missing file just means first run.
		if st, err := powerchar.DefaultCache.LoadFile(*modelCache); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "easrun: model cache:", err)
		} else if st.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "easrun: model cache: skipped %d corrupt or incomplete entries\n", st.Skipped)
		}
		defer func() {
			if err := powerchar.DefaultCache.SaveFile(*modelCache); err != nil {
				fmt.Fprintln(os.Stderr, "easrun: model cache:", err)
			}
		}()
	}

	if *detail {
		d, err := report.WorkloadDetail(strings.ToUpper(*workload), *platformName, *metricName, *seed)
		if err != nil {
			fail(err)
		}
		d.Render(os.Stdout)
		if *svgDir != "" {
			doc, err := d.SweepSVG()
			if err != nil {
				fail(err)
			}
			path, err := report.WriteSVG(*svgDir, "detail-"+d.Workload, doc)
			if err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
		return
	}

	w, ok := workloads.ByAbbrev(strings.ToUpper(*workload))
	if !ok {
		var names []string
		for _, wl := range workloads.All() {
			names = append(names, wl.Abbrev)
		}
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, " ")))
	}
	spec, ok := platform.Presets(*platformName)
	if !ok {
		fail(fmt.Errorf("unknown platform %q", *platformName))
	}
	metric, err := metrics.ByName(*metricName)
	if err != nil {
		fail(err)
	}

	opts := core.Options{GrowProfileChunk: true, ConvergeTol: 0.08, Observer: observer, State: core.StatePolicy{Path: *statePath}}
	var strat sched.Strategy
	switch strings.ToUpper(*strategy) {
	case "CPU":
		strat = sched.CPUOnly()
	case "GPU":
		strat = sched.GPUOnly()
	case "PERF":
		strat = sched.Perf(opts)
	case "EAS":
		strat = sched.EAS(opts)
	case "ORACLE":
		strat = sched.Oracle(0.1)
	case "FIXED":
		strat = sched.FixedAlpha(*alpha)
	default:
		fail(fmt.Errorf("unknown strategy %q", *strategy))
	}

	var model *powerchar.Model
	if needsModel(strat.Name()) {
		fmt.Fprintf(os.Stderr, "characterizing %s…\n", spec.Name)
		model, err = powerchar.Cached(context.Background(), spec, powerchar.Options{})
		if err != nil {
			fail(err)
		}
	}

	res, err := strat.Run(context.Background(), w, spec, model, metric, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload   : %s (%s) on %s\n", w.Name, w.Abbrev, spec.Name)
	fmt.Printf("strategy   : %s\n", res.Strategy)
	fmt.Printf("invocations: %d\n", res.Invocations)
	fmt.Printf("time       : %v\n", res.Duration)
	fmt.Printf("energy     : %.2f J  (avg %.2f W)\n", res.EnergyJ, res.EnergyJ/res.Duration.Seconds())
	fmt.Printf("%-11s: %.6g\n", metric.Name(), res.Value)
	fmt.Printf("GPU share  : %.0f%% of iterations\n", res.GPUShare*100)
	if res.Strategy == "Oracle" {
		fmt.Printf("best fixed α: %.1f\n", res.OracleAlpha)
	}
}

func needsModel(name string) bool { return name == "EAS" || name == "PERF" }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "easrun:", err)
	os.Exit(1)
}

// Command easbench regenerates the paper's evaluation tables and
// figures on the simulated platforms.
//
// Usage:
//
//	easbench [-fig 9|10|11|12|all] [-table1] [-seed N] [-oracle-step S]
//	easbench -overload 4     (open-loop multi-tenant overload soak)
//
// With no flags it reproduces everything: Table 1 and Figures 9-12.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/hetsched/eas"
	"github.com/hetsched/eas/internal/chaosdemo"
	"github.com/hetsched/eas/internal/powerchar"
	"github.com/hetsched/eas/internal/report"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 9, 10, 11, 12, or all")
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	seed := flag.Int64("seed", 0, "workload schedule seed (0 = default)")
	oracleStep := flag.Float64("oracle-step", 0, "oracle sweep granularity (0 = 0.1)")
	svgDir := flag.String("svg", "", "also write each figure as an SVG into this directory")
	jsonDir := flag.String("json", "", "also write each figure's raw data as JSON into this directory")
	sweep := flag.Int("sweep", 0, "run a robustness sweep over this many seeds instead of single figures")
	ablations := flag.Bool("ablations", false, "run the ablation studies (poly order, alpha step, curves, profiling, thresholds)")
	contention := flag.String("contention", "", "run the GPU-contention study for this workload abbreviation")
	dynOracle := flag.Bool("dyn-oracle", false, "run the dynamic per-invocation oracle study")
	overload := flag.Float64("overload", 0, "run the open-loop overload soak at this multiple of measured capacity (e.g. 4)")
	overloadTenants := flag.Int("overload-tenants", 6, "tenant identities for -overload")
	overloadDuration := flag.Duration("overload-duration", 2*time.Second, "arrival-generation window for -overload")
	overloadOut := flag.String("overload-out", "", "write the -overload soak summary as JSON to this file")
	overloadAssert := flag.Bool("overload-assert", false, "fail unless the -overload run drains fully, sheds nonzero, and keeps interactive p99 bounded")
	overloadP99 := flag.Duration("overload-p99", 250*time.Millisecond, "interactive p99 bound for -overload-assert")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf work)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	modelCache := flag.String("model-cache", "", "JSON file persisting characterization models across invocations (loaded at start, saved on exit)")
	chaos := flag.Int64("chaos", 0, "run the degraded-telemetry chaos demo with this seed (0 = off)")
	sensorFaults := flag.String("sensor-faults", "", "fault spec for -chaos, e.g. \"stuck=6,noise=0.5,lie=0.1x2\" (empty = seeded random storm)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the scheduling decisions to this file (observed runs: -overload, -chaos, -warmstart)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/trace on this HOST:PORT while the run executes")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder and write incident dumps (JSON) into this directory on anomaly triggers")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr: also mount Go pprof profiling endpoints under /debug/pprof/")
	statePath := flag.String("state", "", "persist the learned α table to FILE (WAL at FILE.wal); used by -warmstart")
	warmstart := flag.Bool("warmstart", false, "run the kill-restart warm-start soak (needs -state): soak, hard-stop with a torn WAL, restart warm, restart stale")
	warmstartTenants := flag.Int("warmstart-tenants", 4, "tenant identities for -warmstart")
	warmstartRuns := flag.Int("warmstart-runs", 6, "invocations per tenant in the -warmstart cold phase")
	stateReport := flag.String("state-report", "", "write the -warmstart recovery stats as JSON to this file")
	warmstartAssert := flag.Bool("warmstart-assert", false, "fail unless -warmstart recovers the torn WAL, skips re-profiling fresh records, and re-profiles stale ones")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		// A profile whose file fails to close is silently truncated —
		// exit non-zero so CI catches it instead of archiving garbage.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("cpuprofile %s: %w", *cpuProfile, err))
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("memprofile %s: %w", *memProfile, err))
			}
		}()
	}

	var observer *eas.Observer
	if *traceOut != "" || *metricsAddr != "" || *flightDir != "" {
		opts := eas.ObserverOptions{EnablePprof: *pprofOn}
		if *flightDir != "" {
			opts.Flight = eas.FlightPolicy{Dir: *flightDir}
		}
		observer = eas.NewObserver(opts)
		if *flightDir != "" {
			defer func() {
				if n := observer.FlightDumps(); n > 0 {
					fmt.Fprintf(os.Stderr, "easbench: flight recorder wrote %d incident dump(s) to %s\n", n, *flightDir)
				}
			}()
		}
		if *metricsAddr != "" {
			srv, err := observer.Serve(*metricsAddr)
			if err != nil {
				fail(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "easbench: serving metrics at http://%s/metrics (trace at /debug/trace)\n", srv.Addr())
		}
		if *traceOut != "" {
			path := *traceOut
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					fail(err)
				}
				if err := observer.WriteChromeTrace(f); err != nil {
					f.Close()
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(fmt.Errorf("trace-out %s: %w", path, err))
				}
				fmt.Fprintf(os.Stderr, "easbench: wrote Perfetto trace to %s\n", path)
			}()
		}
	}
	if *modelCache != "" {
		if st, err := powerchar.DefaultCache.LoadFile(*modelCache); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "easbench: model cache:", err)
		} else if st.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "easbench: model cache: skipped %d corrupt or incomplete entries\n", st.Skipped)
		}
		defer func() {
			if err := powerchar.DefaultCache.SaveFile(*modelCache); err != nil {
				fmt.Fprintln(os.Stderr, "easbench: model cache:", err)
			}
		}()
	}

	if *chaos != 0 || *sensorFaults != "" {
		seed := *chaos
		if seed == 0 {
			seed = 1
		}
		if err := chaosdemo.Run(os.Stdout, seed, *sensorFaults, 24, observer); err != nil {
			fail(err)
		}
		return
	}

	if *warmstart {
		err := runWarmstart(warmstartConfig{
			StatePath: *statePath,
			Tenants:   *warmstartTenants,
			Runs:      *warmstartRuns,
			Out:       *stateReport,
			Assert:    *warmstartAssert,
		}, observer)
		if err != nil {
			fail(err)
		}
		return
	}

	if *overload > 0 {
		err := runOverload(overloadConfig{
			Multiplier: *overload,
			Tenants:    *overloadTenants,
			Duration:   *overloadDuration,
			Seed:       *seed,
			P99Bound:   *overloadP99,
			Assert:     *overloadAssert,
			Out:        *overloadOut,
		}, observer)
		if err != nil {
			fail(err)
		}
		return
	}

	if *dynOracle {
		rows, err := report.DynOracleStudy([]string{"BFS", "CC", "SP", "FD", "BS", "SM"}, "edp", *seed)
		if err != nil {
			fail(err)
		}
		report.RenderDynOracle(os.Stdout, "edp", rows)
		return
	}

	if *contention != "" {
		results, err := report.GPUContentionStudy(*contention, "edp", []float64{0, 0.25, 0.5, 0.75, 1}, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("GPU contention study: %s on the desktop (EDP)\n", *contention)
		fmt.Printf("%10s %10s %12s %12s %12s\n", "busy frac", "fallbacks", "time", "energy (J)", "EDP")
		for _, r := range results {
			fmt.Printf("%10.2f %10d %12v %12.2f %12.5g\n",
				r.BusyFraction, r.Fallbacks, r.Duration.Round(1e6), r.EnergyJ, r.MetricValue)
		}
		return
	}

	if *sweep > 0 {
		seeds := make([]int64, *sweep)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		for _, exp := range []struct{ p, m string }{{"desktop", "edp"}, {"desktop", "energy"}} {
			stats, err := report.SeedSweep(exp.p, exp.m, seeds, report.Options{})
			if err != nil {
				fail(err)
			}
			report.RenderSweep(os.Stdout, exp.p, exp.m, len(seeds), stats)
			fmt.Println()
		}
		return
	}
	if *ablations {
		runAblations()
		return
	}

	figures := map[string]struct{ platform, metric string }{
		"9":  {"desktop", "edp"},
		"10": {"desktop", "energy"},
		"11": {"tablet", "edp"},
		"12": {"tablet", "energy"},
	}
	if *fig != "" && *fig != "all" {
		if _, ok := figures[*fig]; !ok {
			fail(fmt.Errorf("unknown figure %q (want 9, 10, 11, 12, or all)", *fig))
		}
	}
	all := (*fig == "" && !*table1) || *fig == "all"
	opts := report.Options{Seed: *seed, OracleStep: *oracleStep}

	if *table1 || all {
		rows, err := report.Table1(*seed)
		if err != nil {
			fail(err)
		}
		report.RenderTable1(os.Stdout, rows)
		fmt.Println()
	}

	for _, id := range []string{"9", "10", "11", "12"} {
		if !all && *fig != id {
			continue
		}
		exp := figures[id]
		f, err := report.Evaluate(exp.platform, exp.metric, opts)
		if err != nil {
			fail(err)
		}
		if err := f.Render(os.Stdout); err != nil {
			fail(err)
		}
		if *svgDir != "" {
			doc, err := f.SVG()
			if err != nil {
				fail(err)
			}
			path, err := report.WriteSVG(*svgDir, "fig"+id, doc)
			if err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "fig"+id+".json")
			data, err := json.MarshalIndent(f, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
		fmt.Println()
	}
}

func runAblations() {
	studies := []struct {
		title string
		run   func() ([]report.AblationRow, error)
	}{
		{"polynomial order", func() ([]report.AblationRow, error) {
			return report.AblationPolyDegree([]int{2, 4, 6, 8}, 0)
		}},
		{"alpha search step", func() ([]report.AblationRow, error) {
			return report.AblationAlphaStep([]float64{0.1, 0.05, 0.01}, 0)
		}},
		{"category curves", func() ([]report.AblationRow, error) {
			return report.AblationSingleCurve(0)
		}},
		{"profiling strategy", func() ([]report.AblationRow, error) {
			return report.AblationProfileStrategy(0)
		}},
		{"classification thresholds", func() ([]report.AblationRow, error) {
			return report.AblationThresholds(0)
		}},
		{"CC re-profiling (energy)", func() ([]report.AblationRow, error) {
			return report.CCReprofileStudy("energy", 0)
		}},
	}
	for _, s := range studies {
		rows, err := s.run()
		if err != nil {
			fail(err)
		}
		report.RenderAblation(os.Stdout, s.title, rows)
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "easbench:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hetsched/eas"
)

// tracedRun gathers the per-layer metrics. It uses the same seed and
// inputs as the timed run, in three ways: harness spans around every
// public call, the library's own observer output (span trace, metrics
// registry, admission statistics), and microdrives that call single
// layers directly. Two untraced side passes give the baselines for the
// tracing and observer overheads.
func tracedRun(w workload, o options) (*result, error) {
	tr := newTracer(w.clients())
	res := &result{}
	if _, err := setUpRepeatedly(w, o, tr); err != nil {
		return nil, err
	}
	characterizeMs := perSetup(tr, "Characterize")

	// The traced pass.
	rw, isRuntime := w.(runtimeWorkload)
	var m0 map[string]float64
	var err error
	if isRuntime {
		if m0, err = scrape(rw.observer()); err != nil {
			return nil, err
		}
	}
	dur, maxOps := o.phaseLen(0.5)
	ph := runPhase(w, dur, maxOps, tr)
	var (
		m1     map[string]float64
		counts opCounts
		adm    eas.AdmissionStats
		dumps  uint64
		ss     spanStats
	)
	if isRuntime {
		if m1, err = scrape(rw.observer()); err != nil {
			return nil, err
		}
		counts = rw.counts()
		adm = rw.runtime().AdmissionStats()
		dumps = rw.observer().FlightDumps()
		var buf bytes.Buffer
		if err := rw.observer().WriteChromeTrace(&buf); err != nil {
			return nil, err
		}
		if ss, err = parseObserverTrace(buf.Bytes()); err != nil {
			return nil, err
		}
		if err := writeTraceFile(o, "observer", buf.Bytes()); err != nil {
			return nil, err
		}
	}
	checks, failed := w.finish(tr)
	res.attempted += ph.ops + checks
	res.failed += ph.failed + len(failed)
	logFailures(o, ph, failed)

	// Side passes without harness spans: the workload's own
	// configuration, then (runtime workloads) the same without Observer.
	side := func(observed bool) (phase, error) {
		if err := w.setUp(nil, observed); err != nil {
			return phase{}, err
		}
		d, maxOps := o.phaseLen(0.25)
		p := runPhase(w, d, maxOps, nil)
		checks, failed := w.finish(nil)
		res.attempted += p.ops + checks
		res.failed += p.failed + len(failed)
		logFailures(o, p, failed)
		return p, nil
	}
	withObs, err := side(true)
	if err != nil {
		return nil, err
	}
	var noObs phase
	if isRuntime {
		if noObs, err = side(false); err != nil {
			return nil, err
		}
	}

	md, err := microdrives(o, tr)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if _, _, err := paperCheck(); err != nil {
		res.failed++
		logFailures(o, phase{}, []error{err})
	}
	if err := writeHarnessTrace(o, tr); err != nil {
		return nil, err
	}

	perOp := func(v float64) float64 { return v / float64(max(ph.ops, 1)) }
	delta := func(name string) float64 { return m1[name] - m0[name] }
	pct := func(k int) float64 { return 100 * float64(k) / float64(max(counts.ops, 1)) }
	rate := func(p phase) float64 {
		if p.ops == 0 {
			return 0
		}
		return p.opsPerSec()
	}
	var obsOverhead, obsAllocs float64
	if isRuntime && rate(withObs) > 0 {
		obsOverhead = 100 * (rate(noObs)/rate(withObs) - 1)
		obsAllocs = float64(withObs.mallocs)/float64(max(withObs.ops, 1)) - float64(noObs.mallocs)/float64(max(noObs.ops, 1))
	}
	var traceOverhead float64
	if rate(withObs) > 0 {
		traceOverhead = 100 * (rate(withObs) - rate(ph)) / rate(withObs)
	}
	var stepsPerDecision float64
	if d := delta("eas_invocations_profiled_total"); d > 0 {
		stepsPerDecision = delta("eas_profile_steps_total") / d
	}
	evalMs := msList(tr.durations("EvaluateCtx"))

	res.add("powerchar.characterize_ms", "ms", characterizeMs)
	res.add("report.evaluate_ms", "ms", median(evalMs))
	res.add("report.cells_serial_ms", "ms", md.cellsSerialMs)
	res.add("par.speedup", "x", md.parSpeedup)
	for _, s := range []string{"Oracle", "EAS", "PERF", "CPU", "GPU"} {
		res.add("sched."+strings.ToLower(s)+"_ms", "ms", md.cellMs[s])
	}
	res.add("engine.ns_per_sim_ms", "ns/ms", md.engineNsPerSimMs)
	res.add("engine.allocs_per_run", "allocs", md.engineAllocsPerRun)
	res.add("core.alpha_search_us", "us", mean(ss.self["alpha-search"]))
	res.add("core.profile_us", "us", mean(ss.dur["profile"]))
	res.add("core.profile_steps_per_decision", "count", stepsPerDecision)
	res.add("core.best_alpha_us", "us", md.bestAlphaUs)
	res.add("core.execute_us", "us", mean(ss.self["execute"]))
	res.add("core.admission_wait_us", "us", ss.perInvocation("admission-wait"))
	res.add("core.coalesce_wait_us", "us", ss.perInvocation("coalesce-wait"))
	res.add("core.profiled_pct", "%", pct(counts.profiled))
	res.add("core.fastpath_pct", "%", pct(counts.fastPath))
	res.add("core.coalesced_pct", "%", pct(counts.coalesced))
	res.add("obs.overhead_pct", "%", obsOverhead)
	res.add("obs.allocs_per_op", "allocs", obsAllocs)
	res.add("obs.spans_per_op", "count", ss.spansPerInvocation())
	res.add("obs.flight_dumps", "count", float64(dumps))
	res.add("admission.shed_total", "count", float64(adm.Shed()))
	res.add("admission.aging_promotions", "count", float64(adm.AgingPromotions))
	res.add("eas.functional_us", "us", mean(ss.dur["functional"]))
	res.add("eas.overhead_us", "us", mean(ss.overhead))
	res.add("ws.steals_per_op", "count", perOp(delta("eas_ws_steals_total")))
	res.add("ws.parks_per_op", "count", perOp(delta("eas_ws_parks_total")))
	res.add("ws.wakes_per_op", "count", perOp(delta("eas_ws_wakes_total")))
	res.add("ws.ns_per_item", "ns", md.wsNsPerItem)
	res.add("cl.enqueues_per_op", "count", perOp(delta("eas_cl_enqueues_total")))
	res.add("cl.busy_total", "count", delta("eas_cl_enqueue_busy_total"))
	res.add("cl.ns_per_item", "ns", md.clNsPerItem)
	res.add("statestore.wal_records_per_op", "count", perOp(delta("eas_state_wal_records_total")))
	res.add("statestore.wal_bytes_per_op", "bytes", perOp(delta("eas_state_wal_bytes_total")))
	res.add("statestore.snapshots", "count", delta("eas_state_snapshots_total"))
	res.add("statestore.append_us", "us", md.appendUs)
	res.add("gc.cycles_per_kop", "count", 1000*perOp(float64(ph.gcCycles)))
	res.add("gc.pause_ms_total", "ms", ms(ph.gcPause))
	res.add("harness.trace_overhead_pct", "%", traceOverhead)

	fmt.Fprintf(o.log, "traced pass: ops=%d ops_per_s=%.1f; untraced: %.1f; without observer: %.1f; observer spans sampled from %d invocations\n",
		ph.ops, rate(ph), rate(withObs), rate(noObs), ss.invocations)
	return res, nil
}

// perSetup sums the named spans under each "setup" span and returns
// the median over set-ups, in milliseconds.
func perSetup(tr *tracer, name string) float64 {
	setups := map[uint64]float64{}
	for _, s := range tr.spans[0] {
		if s.name == "setup" {
			setups[s.id] = 0
		}
	}
	for _, s := range tr.spans[0] {
		if _, ok := setups[s.parent]; ok && s.name == name {
			setups[s.parent] += ms(s.end - s.start)
		}
	}
	var vals []float64
	for _, v := range setups {
		vals = append(vals, v)
	}
	return median(vals)
}

func logFailures(o options, p phase, failed []error) {
	if p.firstErr != nil {
		fmt.Fprintln(o.log, "first failed op:", p.firstErr)
	}
	for _, err := range failed {
		fmt.Fprintln(o.log, "failed check:", err)
	}
}

// scrape reads the observer's metrics registry (Prometheus text),
// summing each family over its labels.
func scrape(ob *eas.Observer) (map[string]float64, error) {
	var b bytes.Buffer
	if err := ob.WriteMetrics(&b); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, nil
}

// spanStats summarizes the observer's span trace over the invocations
// whose root span is still in the ring.
type spanStats struct {
	invocations int
	spans       int
	// self and dur list self times and durations (µs) by span name;
	// sum totals durations by name.
	self, dur map[string][]float64
	sum       map[string]float64
	// overhead lists, per invocation, the root span's duration minus
	// its functional-execution span (µs).
	overhead []float64
}

func (s spanStats) perInvocation(name string) float64 {
	if s.invocations == 0 {
		return 0
	}
	return s.sum[name] / float64(s.invocations)
}

func (s spanStats) spansPerInvocation() float64 {
	if s.invocations == 0 {
		return 0
	}
	return float64(s.spans) / float64(s.invocations)
}

// parseObserverTrace reads Observer.WriteChromeTrace output. A span's
// self time is its duration minus the part of it its children cover.
func parseObserverTrace(data []byte) (spanStats, error) {
	type ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  uint64  `json:"tid"`
		Args struct {
			Span   uint64 `json:"span"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	}
	var doc struct {
		TraceEvents []ev `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return spanStats{}, fmt.Errorf("observer trace: %w", err)
	}
	byInv := map[uint64][]ev{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			byInv[e.TID] = append(byInv[e.TID], e)
		}
	}
	st := spanStats{self: map[string][]float64{}, dur: map[string][]float64{}, sum: map[string]float64{}}
	for _, evs := range byInv {
		var root *ev
		for i := range evs {
			if evs[i].Ph == "X" && evs[i].Args.Parent == 0 {
				root = &evs[i]
			}
		}
		if root == nil {
			continue // the ring evicted this invocation's root
		}
		st.invocations++
		st.spans += len(evs)
		functional := 0.0
		for _, e := range evs {
			if e.Ph != "X" {
				continue
			}
			var kids [][2]float64
			for _, k := range evs {
				if k.Ph == "X" && k.Args.Parent == e.Args.Span {
					kids = append(kids, [2]float64{k.TS, k.TS + k.Dur})
				}
			}
			st.self[e.Name] = append(st.self[e.Name], e.Dur-covered(e.TS, e.TS+e.Dur, kids))
			st.dur[e.Name] = append(st.dur[e.Name], e.Dur)
			st.sum[e.Name] += e.Dur
			if e.Name == "functional" {
				functional += e.Dur
			}
		}
		st.overhead = append(st.overhead, root.Dur-functional)
	}
	return st, nil
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end float64
	end = lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// writeTraceFile stores a trace under .bench_build/trace/.
func writeTraceFile(o options, kind string, data []byte) error {
	path, err := tracePath(o, kind)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func writeHarnessTrace(o options, tr *tracer) error {
	path, err := tracePath(o, "harness")
	if err != nil {
		return err
	}
	return tr.writeChrome(path)
}

func tracePath(o options, kind string) (string, error) {
	scratch, err := scratchDir()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(scratch, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, o.workload+"-"+kind+".json"), nil
}

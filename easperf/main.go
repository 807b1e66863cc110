// Command easperf is the repository benchmark. It drives the eas
// library through three seeded closed-loop workloads (repro, decide,
// serve), prints every end-to-end metric by name and unit with a
// correctness verdict, and, with -trace 1, prints per-layer metrics
// gathered from harness spans, the library's own observer output and
// direct calls into each layer.
//
// Run it from the repository root (it reads the golden evaluation
// output and writes under .bench_build/) through run.sh, which builds it:
//
//	bash easperf/run.sh --workload serve --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shortens every phase to a few operations.
	smoke bool
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// metric is one named, unit-carrying measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("easperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: repro, decide or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "run a few operations per phase only (harness self-check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "easperf: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "easperf: -seconds must be positive")
		return 2
	}
	o.log = stdout
	w, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "easperf:", err)
		return 2
	}
	printEnv(stdout, o)
	var res *result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = timedRun(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "easperf:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "easperf:", err)
		return 1
	}
	return 0
}

// printEnv records what the numbers were measured on.
func printEnv(w io.Writer, o options) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%t smoke=%t\n", o.workload, o.seed, o.seconds, o.trace, o.smoke)
	fmt.Fprintf(w, "go=%s nproc=%d gomaxprocs=%d cpu=%q\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" when
// it is not available).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResult prints one human-readable line per metric, then the
// verdict line the benchmark contract requires.
func writeResult(w io.Writer, res *result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(res.metrics)),
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		fmt.Fprintf(w, "metric %-36s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(w, "fail_pct %.4f %% (%d failed of %d attempted)\n",
		100*float64(res.failed)/math.Max(1, float64(res.attempted)), res.failed, res.attempted)
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// checkf reports a failed output check.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

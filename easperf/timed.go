package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the program up; setup_s is
// the median.
const setupReps = 9

// phase is what one closed-loop measured phase observed.
type phase struct {
	ops, failed int
	elapsed     time.Duration
	// lat holds every successful op's latency in nanoseconds, and blk
	// the block of the phase it completed in.
	lat []uint32
	blk []uint8
	// blockOps counts the operations completed in each block.
	blockOps []int
	blockLen time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	firstErr error
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// blockOpsPerSec is the median over blocks of each block's throughput
// (the whole phase's when it has one block).
func (p phase) blockOpsPerSec() float64 {
	if len(p.blockOps) < 2 {
		return p.opsPerSec()
	}
	rates := make([]float64, len(p.blockOps))
	for b, n := range p.blockOps {
		rates[b] = float64(n) / p.blockLen.Seconds()
	}
	return median(rates)
}

// latencyQuantiles returns p50, p90 and p99 in microseconds: over all
// operations for a one-block phase, otherwise the median over blocks of
// each block's quantile.
func (p phase) latencyQuantiles() (p50, p90, p99 float64) {
	nb := max(len(p.blockOps), 1)
	per := make([][]float64, nb)
	for i, v := range p.lat {
		b := int(p.blk[i])
		per[b] = append(per[b], float64(v)/1e3)
	}
	var q50, q90, q99 []float64
	for _, xs := range per {
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		q50 = append(q50, quantile(xs, 0.5))
		q90 = append(q90, quantile(xs, 0.9))
		q99 = append(q99, quantile(xs, 0.99))
	}
	return median(q50), median(q90), median(q99)
}

// runPhase drives w with its clients in a closed loop: each client
// sends its next operation when the previous one returns, until dur
// has passed (or maxOps operations per client, when maxOps > 0). The
// phase is cut into w.blocks() equal blocks so that throughput and
// latency can be reported as medians over blocks, which keeps a short
// burst of interference from moving the whole run's figure. Memory
// statistics are read before and after, never inside the loop.
func runPhase(w workload, dur time.Duration, maxOps int, tr *tracer) phase {
	n := w.clients()
	nb := w.blocks()
	if maxOps > 0 {
		nb = 1
	}
	blockLen := dur / time.Duration(nb)
	hint := int(dur.Seconds()*float64(w.rateHint())) + 16
	if maxOps > 0 && hint > maxOps {
		hint = maxOps
	}
	lats := make([][]uint32, n)
	blks := make([][]uint8, n)
	blockOps := make([][]int, n)
	for c := range lats {
		lats[c] = make([]uint32, 0, hint)
		blks[c] = make([]uint8, 0, hint)
		blockOps[c] = make([]int, nb)
	}
	ops := make([]int, n)
	fails := make([]int, n)
	var first firstError

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin(0, "measured-phase", -1)
	tr.inherit()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat, blk, bops := lats[c], blks[c], blockOps[c]
			i := 0
			for ; maxOps <= 0 || i < maxOps; i++ {
				d, err := w.op(c, i, tr)
				now := time.Now()
				b := min(int(now.Sub(start)/blockLen), nb-1)
				bops[b]++
				if err != nil {
					fails[c]++
					first.set(fmt.Errorf("client %d op %d: %w", c, i, err))
				} else {
					lat = append(lat, uint32(min(d, math.MaxUint32)))
					blk = append(blk, uint8(b))
				}
				if !now.Before(deadline) {
					i++
					break
				}
			}
			ops[c] = i
			lats[c], blks[c] = lat, blk
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	tr.end(0, sp)
	runtime.ReadMemStats(&after)

	p := phase{
		elapsed:  elapsed,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		firstErr: first.get(),
		blockOps: make([]int, nb),
		blockLen: blockLen,
	}
	for c := 0; c < n; c++ {
		p.ops += ops[c]
		p.failed += fails[c]
		p.lat = append(p.lat, lats[c]...)
		p.blk = append(p.blk, blks[c]...)
		for b, k := range blockOps[c] {
			p.blockOps[b] += k
		}
	}
	return p
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTicks is the machine's steal and total CPU time from /proc/stat,
// in clock ticks (zero when it cannot be read).
type cpuTicks struct{ steal, total float64 }

func hostSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		t.total += x
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = x
		}
	}
	return t
}

// since returns the steal share of CPU time since t0, in percent.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * (t.steal - t0.steal) / (t.total - t0.total)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// phaseLen returns a phase's duration as a share of --seconds, and its
// per-client op cap in smoke mode.
func (o options) phaseLen(share float64) (time.Duration, int) {
	if o.smoke {
		return time.Minute, 3
	}
	return time.Duration(share * o.seconds * float64(time.Second)), 0
}

// setUpRepeatedly sets the program up several times, tearing down all
// but the last, and returns the median set-up time in seconds.
func setUpRepeatedly(w workload, o options, tr *tracer) (float64, error) {
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			if _, failed := w.finish(nil); len(failed) > 0 {
				return 0, fmt.Errorf("tearing down set-up %d: %w", r, failed[0])
			}
		}
		sp := tr.begin(0, "setup", -1)
		t0 := time.Now()
		err := w.setUp(tr, true)
		times = append(times, time.Since(t0).Seconds())
		tr.end(0, sp)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return median(times), nil
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w workload, o options) (*result, error) {
	setupS, err := setUpRepeatedly(w, o, nil)
	if err != nil {
		return nil, err
	}
	dur, maxOps := o.phaseLen(1)
	steal0 := hostSteal()
	ph := runPhase(w, dur, maxOps, nil)
	fmt.Fprintf(o.log, "host steal during the measured phase: %.2f%% of CPU time (informational)\n", hostSteal().since(steal0))
	fmt.Fprintf(o.log, "ops per block: %v\n", ph.blockOps)
	var q opCounts
	if rw, ok := w.(runtimeWorkload); ok {
		q = rw.counts()
	}
	checks, failed := w.finish(nil)
	easPct, easEDP, perr := paperCheck()
	checks++
	if perr != nil {
		failed = append(failed, perr)
	}
	logFailures(o, ph, failed)

	p50, p90, p99 := ph.latencyQuantiles()
	fmt.Fprintf(o.log, "ops=%d failed=%d elapsed_s=%.3f latency_samples=%d blocks=%d p99_us=%.3f (informational, not gated)\n",
		ph.ops, ph.failed, ph.elapsed.Seconds(), len(ph.lat), len(ph.blockOps), p99)
	simEDP := easEDP
	if q.edpN > 0 {
		simEDP = q.edpSum / float64(q.edpN)
	}
	res := &result{attempted: ph.ops + checks, failed: ph.failed + len(failed)}
	res.add("setup_s", "s", setupS)
	res.add("ops_per_s", "1/s", ph.blockOpsPerSec())
	res.add("latency_p50_us", "us", p50)
	res.add("latency_p90_us", "us", p90)
	res.add("allocs_per_op", "allocs", float64(ph.mallocs)/float64(max(ph.ops, 1)))
	res.add("bytes_per_op", "bytes", float64(ph.bytes)/float64(max(ph.ops, 1)))
	res.add("peak_rss_mb", "MiB", peakRSSMiB())
	res.add("eas_vs_oracle_pct", "%", easPct)
	res.add("sim_edp_mean", "J.s", simEDP)
	return res, nil
}

package main

// Open-loop multi-tenant overload generator for the admission gate.
// Unlike a closed loop, where each tenant waits for its previous
// invocation, arrivals here are generated at a fixed offered rate
// regardless of completions — the only regime in which an overloaded
// system actually shows its failure mode. The offered rate
// is a multiple of the measured scheduling capacity, so "-overload 4"
// means 4x what the gate can serve and the controller MUST shed.
//
// The run is summarized as a JSON artifact (per-class latency
// percentiles, shed counts by reason, admission-gate stats) and can
// self-check the resilience contract with -overload-assert: the run
// drains fully (zero deadlocks), sheds a nonzero fraction, and keeps
// the admitted interactive p99 under a bound.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hetsched/eas"
)

type overloadConfig struct {
	Multiplier float64       // offered load as a multiple of measured capacity
	Tenants    int           // concurrent tenant identities
	Duration   time.Duration // arrival-generation window
	Seed       int64         // tenant/class assignment seed
	P99Bound   time.Duration // interactive p99 assertion bound
	Assert     bool          // enforce the resilience contract
	Out        string        // JSON artifact path ("" = stdout summary only)
}

// classSummary aggregates admitted-invocation latency for one class.
type classSummary struct {
	Admitted int     `json:"admitted"`
	Shed     int     `json:"shed"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// overloadResult is the soak artifact: everything CI needs to assert
// the resilience contract and everything a human needs to see what the
// controller did under 4x load.
type overloadResult struct {
	Multiplier          float64 `json:"multiplier"`
	Tenants             int     `json:"tenants"`
	DurationMS          float64 `json:"duration_ms"`
	Seed                int64   `json:"seed"`
	QueueDepth          int     `json:"queue_depth"`
	WatchdogMS          float64 `json:"watchdog_ms"`
	InteractiveBudgetMS float64 `json:"interactive_budget_ms"`

	CapacityPerSec float64                 `json:"capacity_per_sec"` // provisioned sustainable admission rate (aggregate quota)
	OfferedPerSec  float64                 `json:"offered_per_sec"`  // calibrated open-loop arrival rate
	Arrivals       int                     `json:"arrivals"`
	Completed      int                     `json:"completed"`
	ShedTotal      int                     `json:"shed_total"`
	ShedWithRetry  int                     `json:"shed_with_retry_after"`
	ShedByReason   map[string]int          `json:"shed_by_reason"`
	TenantRate     float64                 `json:"tenant_rate_per_sec"`
	Errors         int                     `json:"errors"`
	Deadlocked     int                     `json:"deadlocked"` // arrivals still in flight after the drain timeout
	WallMS         float64                 `json:"wall_ms"`
	Classes        map[string]classSummary `json:"classes"`
	Admission      eas.AdmissionStats      `json:"admission"`
	Mem            memSummary              `json:"mem"`
}

// memSummary snapshots the process's allocation behaviour at the end of
// the soak (runtime.MemStats), so the artifact tracks GC pressure
// alongside the latency percentiles run over run.
type memSummary struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
	GCPauseTotalNS  uint64 `json:"gc_pause_total_ns"`
}

func readMemSummary() memSummary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSummary{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		GCPauseTotalNS:  ms.PauseTotalNs,
	}
}

// runOverload drives the open-loop soak and, with cfg.Assert, returns
// an error if the resilience contract is violated.
func runOverload(cfg overloadConfig, observer *eas.Observer) error {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.P99Bound <= 0 {
		cfg.P99Bound = 250 * time.Millisecond
	}
	queueDepth := 2 * cfg.Tenants
	watchdog := 2 * time.Second
	budget := cfg.P99Bound / 2

	model, err := eas.Characterize(eas.DesktopPlatform())
	if err != nil {
		return err
	}
	rt, err := eas.NewRuntime(eas.DesktopPlatform(), eas.Config{
		Metric:   eas.EDP,
		Model:    model,
		Observer: observer,
		Admission: eas.AdmissionPolicy{
			QueueDepth: queueDepth,
			Watchdog:   watchdog,
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	// Two kernel shapes so the gate serves a mixed α population; Body
	// nil keeps each invocation a pure scheduling decision, which is
	// what the admission gate serializes.
	kernels := []eas.Kernel{
		{Name: "ov-compute", FLOPsPerItem: 20000, MemOpsPerItem: 20, L3MissRatio: 0.02, InstructionsPerItem: 3000},
		{Name: "ov-memory", FLOPsPerItem: 10, MemOpsPerItem: 100, L3MissRatio: 0.6, InstructionsPerItem: 500},
	}
	const items = 100000

	// Warm the α table, then measure serial capacity in the steady
	// state: mean scheduling latency with zero contention.
	for _, k := range kernels {
		if _, err := rt.ParallelFor(k, items); err != nil {
			return err
		}
	}
	// A scheduling decision costs single-digit microseconds, so no
	// in-process generator can outrun the raw gate — "capacity" must be
	// defined by provisioning. Calibrate the arrival rate the generator
	// can actually deliver (a full-throttle burst through the gate),
	// then provision aggregate tenant quotas at 1/Multiplier of it: the
	// soak then offers Multiplier x the provisioned capacity by
	// construction and the controller must shed the excess (about
	// 1 - 1/Multiplier of arrivals).
	const calArrivals = 20000
	calStart := time.Now()
	var calWG sync.WaitGroup
	for i := 0; i < calArrivals; i++ {
		calWG.Add(1)
		go func(i int) {
			defer calWG.Done()
			_, _ = rt.ParallelFor(kernels[i%len(kernels)], items)
		}(i)
	}
	calWG.Wait()
	offered := float64(calArrivals) / time.Since(calStart).Seconds()
	capacity := offered / cfg.Multiplier
	tenantRate := capacity / float64(cfg.Tenants)
	for g := 0; g < cfg.Tenants; g++ {
		rt.SetTenantQuota(fmt.Sprintf("tenant-%d", g),
			eas.TenantQuota{Rate: tenantRate, Burst: float64(queueDepth)})
	}

	type outcome struct {
		class      eas.Class
		latency    time.Duration
		shed       string // "" = admitted
		retryAfter bool   // shed carried a positive RetryAfter hint
		err        bool
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	type arrival struct {
		tenant string
		class  eas.Class
		kernel eas.Kernel
	}
	// Pre-draw the arrival mix so the rng is consumed deterministically
	// in one goroutine regardless of timing. The plan is capped so a
	// fast machine (higher capacity, so higher offered rate) cannot
	// balloon the soak; the cap shortens the window, not the rate.
	const maxArrivals = 150000
	planned := int(offered * cfg.Duration.Seconds())
	if planned > maxArrivals {
		planned = maxArrivals
		fmt.Fprintf(os.Stderr, "easbench: overload: capping at %d arrivals (window shrinks to %v)\n",
			maxArrivals, time.Duration(float64(maxArrivals)/offered*float64(time.Second)).Round(time.Millisecond))
	}
	plan := make([]arrival, 0, planned)
	for i := 0; i < planned; i++ {
		g := rng.Intn(cfg.Tenants)
		plan = append(plan, arrival{
			tenant: fmt.Sprintf("tenant-%d", g),
			class:  eas.Class(g % 3),
			kernel: kernels[rng.Intn(len(kernels))],
		})
	}

	// Open loop: issue arrivals on schedule — at interval 1/offered —
	// never waiting for completions. Sleeps are coarse (~1ms), so each
	// pass launches every arrival whose scheduled time has passed.
	start := time.Now()
	interval := time.Duration(float64(time.Second) / offered)
	issued := 0
	for issued < len(plan) {
		due := int(time.Since(start)/interval) + 1
		if due > len(plan) {
			due = len(plan)
		}
		for ; issued < due; issued++ {
			a := plan[issued]
			wg.Add(1)
			go func(a arrival) {
				defer wg.Done()
				ctx := eas.WithTenant(eas.WithClass(context.Background(), a.class), a.tenant)
				if a.class == eas.ClassInteractive {
					ctx = eas.WithDeadlineBudget(ctx, budget)
				}
				t0 := time.Now()
				_, err := rt.ParallelForCtx(ctx, a.kernel, items)
				o := outcome{class: a.class, latency: time.Since(t0)}
				var ov *eas.ErrOverloaded
				switch {
				case err == nil:
				case errors.As(err, &ov):
					o.shed = ov.Reason
					o.retryAfter = ov.RetryAfter > 0
				default:
					o.err = true
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}(a)
		}
		time.Sleep(time.Millisecond)
	}

	// Drain. A bounded wait is the deadlock detector: a healthy gate
	// clears the backlog in O(queue x hold); anything still in flight
	// after the timeout is reported (and fails -overload-assert).
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	deadlocked := 0
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		mu.Lock()
		deadlocked = len(plan) - len(outcomes)
		mu.Unlock()
	}
	wall := time.Since(start)

	res := overloadResult{
		Multiplier:          cfg.Multiplier,
		Tenants:             cfg.Tenants,
		DurationMS:          float64(cfg.Duration) / 1e6,
		Seed:                cfg.Seed,
		QueueDepth:          queueDepth,
		WatchdogMS:          float64(watchdog) / 1e6,
		InteractiveBudgetMS: float64(budget) / 1e6,
		CapacityPerSec:      capacity,
		OfferedPerSec:       offered,
		TenantRate:          tenantRate,
		Arrivals:            len(plan),
		Deadlocked:          deadlocked,
		WallMS:              float64(wall) / 1e6,
		ShedByReason:        map[string]int{},
		Classes:             map[string]classSummary{},
		Admission:           rt.AdmissionStats(),
		Mem:                 readMemSummary(),
	}
	latencies := map[eas.Class][]time.Duration{}
	mu.Lock()
	for _, o := range outcomes {
		switch {
		case o.err:
			res.Errors++
		case o.shed != "":
			res.ShedTotal++
			if o.retryAfter {
				res.ShedWithRetry++
			}
			res.ShedByReason[o.shed]++
			cs := res.Classes[o.class.String()]
			cs.Shed++
			res.Classes[o.class.String()] = cs
		default:
			res.Completed++
			latencies[o.class] = append(latencies[o.class], o.latency)
		}
	}
	mu.Unlock()
	for class, ls := range latencies {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		pct := func(p float64) float64 {
			if len(ls) == 0 {
				return 0
			}
			i := int(p * float64(len(ls)-1))
			return float64(ls[i]) / 1e6
		}
		cs := res.Classes[class.String()]
		cs.Admitted = len(ls)
		cs.P50MS, cs.P95MS, cs.P99MS = pct(0.50), pct(0.95), pct(0.99)
		res.Classes[class.String()] = cs
	}

	res.render(os.Stdout)
	if cfg.Out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "easbench: wrote overload soak artifact to %s\n", cfg.Out)
	}

	if cfg.Assert {
		var violations []string
		if res.Deadlocked > 0 {
			violations = append(violations, fmt.Sprintf("%d invocations never returned (deadlock)", res.Deadlocked))
		}
		if res.Errors > 0 {
			violations = append(violations, fmt.Sprintf("%d unexpected errors", res.Errors))
		}
		if res.ShedTotal == 0 {
			violations = append(violations, fmt.Sprintf("zero shed at %.0fx offered load — the controller is not shedding", cfg.Multiplier))
		} else if res.ShedWithRetry == 0 {
			violations = append(violations, "no shed carried a RetryAfter hint")
		}
		inter := res.Classes[eas.ClassInteractive.String()]
		if inter.Admitted > 0 && inter.P99MS > float64(cfg.P99Bound)/1e6 {
			violations = append(violations, fmt.Sprintf("interactive p99 %.1fms exceeds the %.0fms bound", inter.P99MS, float64(cfg.P99Bound)/1e6))
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "easbench: overload assertion failed:", v)
			}
			return fmt.Errorf("overload soak violated the resilience contract (%d violations)", len(violations))
		}
		fmt.Println("\noverload assertions passed: drained fully, nonzero shed, interactive p99 bounded")
	}
	return nil
}

// render writes the human-readable summary.
func (r overloadResult) render(w *os.File) {
	fmt.Fprintf(w, "overload soak: %.0fx capacity open loop, %d tenants, %s window, seed %d\n\n",
		r.Multiplier, r.Tenants, time.Duration(r.DurationMS*1e6).Round(time.Millisecond), r.Seed)
	fmt.Fprintf(w, "provisioned capacity %.0f admissions/s (quota %.0f/s x %d tenants), offered %.0f arrivals/s (%d arrivals)\n",
		r.CapacityPerSec, r.TenantRate, r.Tenants, r.OfferedPerSec, r.Arrivals)
	fmt.Fprintf(w, "completed %d, shed %d (%v), errors %d, deadlocked %d, drained in %v\n\n",
		r.Completed, r.ShedTotal, r.ShedByReason, r.Errors, r.Deadlocked,
		time.Duration(r.WallMS*1e6).Round(time.Millisecond))
	fmt.Fprintf(w, "%12s %9s %6s %10s %10s %10s\n", "class", "admitted", "shed", "p50", "p95", "p99")
	for _, class := range []eas.Class{eas.ClassInteractive, eas.ClassBatch, eas.ClassBackground} {
		cs := r.Classes[class.String()]
		fmt.Fprintf(w, "%12s %9d %6d %9.2fms %9.2fms %9.2fms\n",
			class, cs.Admitted, cs.Shed, cs.P50MS, cs.P95MS, cs.P99MS)
	}
	st := r.Admission
	fmt.Fprintf(w, "\ngate: admitted %v by class, shed quota/queue/deadline %d/%d/%d, aging promotions %d, watchdog stalls %d, avg hold %v\n",
		st.Admitted, st.ShedQuota, st.ShedQueueFull, st.ShedDeadline,
		st.AgingPromotions, st.WatchdogStalls, st.AvgHold.Round(time.Microsecond))
}

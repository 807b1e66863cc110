package eas

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hetsched/eas/internal/msr"
)

// TestRuntimeConcurrentCallers is the public-API tentpole stress test:
// eight goroutines hammer one Runtime with functional bodies — half on
// a shared kernel, half on private kernels — and every invocation must
// execute each of its indices exactly once, with the α table left
// consistent. Under -race this covers the whole concurrent path:
// admission gate, table G, energy metering, work-stealing pool, and
// the mini-CL queue.
func TestRuntimeConcurrentCallers(t *testing.T) {
	const (
		goroutines = 8
		runsEach   = 3
		n          = 50000
	)
	rt := newRuntime(t, EDP)
	defer rt.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "shared-tenant"
			if g%2 == 1 {
				name = fmt.Sprintf("tenant-%d", g)
			}
			for r := 0; r < runsEach; r++ {
				hits := make([]int32, n)
				rep, err := rt.ParallelFor(Kernel{
					Name:         name,
					FLOPsPerItem: 200, MemOpsPerItem: 20, L3MissRatio: 0.1, InstructionsPerItem: 400,
					Body: func(i int) { atomic.AddInt32(&hits[i], 1) },
				}, n)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, r, err)
					return
				}
				for i, h := range hits {
					if h != 1 {
						t.Errorf("goroutine %d run %d: index %d executed %d times, want exactly 1", g, r, i, h)
						return
					}
				}
				if rep.EnergyJ <= 0 || rep.Duration <= 0 {
					t.Errorf("goroutine %d run %d: empty report (E=%v, D=%v) — meters interleaved?",
						g, r, rep.EnergyJ, rep.Duration)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every tenant's kernel must be remembered with a sane α.
	names := []string{"shared-tenant"}
	for g := 1; g < goroutines; g += 2 {
		names = append(names, fmt.Sprintf("tenant-%d", g))
	}
	for _, name := range names {
		a, ok := rt.Alpha(name)
		if !ok {
			t.Errorf("kernel %q missing from α table after concurrent runs", name)
		} else if a < 0 || a > 1 {
			t.Errorf("kernel %q: α = %v out of [0,1]", name, a)
		}
	}
}

// Concurrent tenants must each be billed their own joules only. The
// per-domain meters are read inside the admission critical section, so
// a report's CPU/GPU/DRAM split covers exactly that tenant's
// invocation; if the window leaked, eight-way contention would inflate
// each tenant's reading with its neighbours' energy (up to ~8× the
// solo baseline). Measure a solo baseline, then hammer, then compare.
func TestConcurrentEnergyAccountingIsPerTenant(t *testing.T) {
	const (
		goroutines = 8
		n          = 50000
	)
	rt := newRuntime(t, EDP)
	defer rt.Close()

	kernel := func() Kernel {
		return Kernel{
			Name:         "energy-tenant",
			FLOPsPerItem: 100, MemOpsPerItem: 50, L3MissRatio: 0.3, InstructionsPerItem: 300,
		}
	}
	// First invocation profiles; the second reuses α and is the steady
	// state the concurrent invocations will also run in.
	if _, err := rt.ParallelFor(kernel(), n); err != nil {
		t.Fatal(err)
	}
	base, err := rt.ParallelFor(kernel(), n)
	if err != nil {
		t.Fatal(err)
	}
	baseSum := base.CPUEnergyJ + base.GPUEnergyJ + base.DRAMEnergyJ
	if baseSum <= 0 {
		t.Fatalf("solo per-domain energy sum = %v, want > 0", baseSum)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep, err := rt.ParallelFor(kernel(), n)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			sum := rep.CPUEnergyJ + rep.GPUEnergyJ + rep.DRAMEnergyJ
			if sum <= 0 {
				t.Errorf("goroutine %d: per-domain energy sum = %v, want > 0", g, sum)
				return
			}
			if sum > 2*baseSum {
				t.Errorf("goroutine %d: contended per-domain energy %v J vs solo baseline %v J — billed for other tenants' work",
					g, sum, baseSum)
			}
		}(g)
	}
	wg.Wait()
}

// Energy conservation across tenants: with one invocation owning the
// platform at a time, the per-domain joules attributed to concurrent
// tenants' reports add up to exactly what the PP0/PP1/DRAM MSRs
// advanced over the run — nothing double-billed, nothing lost — and the
// per-tenant eas_tenant_energy_joules_total{domain} families sum to the
// same totals. The fast-path row re-profiles every second invocation
// unless the record is confident, so its skipped decisions are held to
// the same books.
func TestEnergyConservationMultiTenant(t *testing.T) {
	for _, row := range []struct {
		name     string
		cfg      Config
		fastPath bool
	}{
		{"replay", Config{}, false},
		{"fast-path", Config{ReprofileEvery: 2, Decision: DecisionPolicy{MinConfidence: 1}}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			assertEnergyConserved(t, row.cfg, row.fastPath)
		})
	}
}

// assertEnergyConserved is TestEnergyConservationMultiTenant's body
// over one config; wantFastPath additionally requires at least one
// report to have taken the fast path.
func assertEnergyConserved(t *testing.T, cfg Config, wantFastPath bool) {
	const (
		tenants  = 8
		runsEach = 4
	)
	observer := NewObserver(ObserverOptions{})
	cfg.Metric, cfg.Model, cfg.Observer = EDP, sharedModel(t), observer
	rt, err := NewRuntime(DesktopPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	p := rt.platform.inner
	pp0, pp1, dram := msr.NewMeter(p.MSRPP0), msr.NewMeter(p.MSRPP1), msr.NewMeter(p.MSRDRAM)
	var mu sync.Mutex
	var cpuJ, gpuJ, dramJ float64
	fastPaths := 0
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := WithClass(WithTenant(context.Background(), fmt.Sprintf("tenant-%d", g)), Class(g%3))
			k := computeKernel("conserve-compute", nil)
			if g%2 == 1 {
				k = memKernel(nil)
			}
			for r := 0; r < runsEach; r++ {
				// Vary n so profiling, replay and small-N CPU-only runs mix.
				rep, err := rt.ParallelForCtx(ctx, k, []int{200000, 120000, 500, 60000}[r])
				if err != nil {
					t.Errorf("tenant %d run %d: %v", g, r, err)
					return
				}
				mu.Lock()
				cpuJ += rep.CPUEnergyJ
				gpuJ += rep.GPUEnergyJ
				dramJ += rep.DRAMEnergyJ
				if rep.FastPath {
					fastPaths++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if wantFastPath && fastPaths == 0 {
		t.Error("no invocation took the fast path; the row does not exercise it")
	}
	tenantJ := map[string]float64{}
	for _, acct := range observer.inner.TenantAccounting() {
		for domain, j := range acct.EnergyJ {
			tenantJ[domain] += j
		}
	}
	for _, d := range []struct {
		domain          string
		reports, metric float64
		msr             float64
	}{
		{"cpu", cpuJ, tenantJ["cpu"], pp0.Joules()},
		{"gpu", gpuJ, tenantJ["gpu"], pp1.Joules()},
		{"dram", dramJ, tenantJ["dram"], dram.Joules()},
	} {
		if d.msr <= 0 {
			t.Errorf("%s: MSR delta %v J, want > 0", d.domain, d.msr)
		}
		if rel := math.Abs(d.reports-d.msr) / d.msr; rel > 1e-9 {
			t.Errorf("%s: reports sum to %v J, MSR delta %v J (rel err %g)", d.domain, d.reports, d.msr, rel)
		}
		if rel := math.Abs(d.metric-d.msr) / d.msr; rel > 1e-9 {
			t.Errorf("%s: tenant metrics sum to %v J, MSR delta %v J (rel err %g)", d.domain, d.metric, d.msr, rel)
		}
	}
}

package eas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReleasedReportIsReused checks the pool round trip: a released
// Report is handed to a later invocation, refilled from scratch, and
// counted by eas_pool_reuse_total. sync.Pool may drop any one Put (the
// race detector drops a quarter on purpose), so the test retries until
// it sees a reuse and checks the counter against every reuse it saw.
func TestReleasedReportIsReused(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t), Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reuse := o.internal().Registry().Counter("eas_pool_reuse_total", "")
	k := memKernel(nil)
	prev, err := rt.ParallelFor(k, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var reused uint64
	for i := 0; i < 64 && reused == 0; i++ {
		id := prev.InvocationID
		rt.ReleaseReport(prev)
		rep, err := rt.ParallelFor(k, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if rep == prev {
			reused++
			if rep.InvocationID == id {
				t.Error("reused Report still carries the released invocation's id")
			}
		}
		prev = rep
	}
	if reused == 0 {
		t.Fatal("no released Report was reused in 64 invocations")
	}
	if got := reuse.Value(); got < reused {
		t.Errorf("eas_pool_reuse_total = %d, want at least the %d reuses observed", got, reused)
	}
}

// TestPoolNeverHandsOutHeldReport runs 8 concurrent callers that keep
// every other Report and release the rest: no Report a caller still
// holds may ever be handed out again, nor be overwritten. Run with
// -race.
func TestPoolNeverHandsOutHeldReport(t *testing.T) {
	rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var (
		mu   sync.Mutex
		held = map[*Report]bool{}
		wg   sync.WaitGroup
	)
	type kept struct {
		rep *Report
		id  uint64
	}
	const callers, perCaller = 8, 24
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []kept
			for i := 0; i < perCaller; i++ {
				rep, err := rt.ParallelFor(memKernel(nil), 4096)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				dup := held[rep]
				held[rep] = true
				mu.Unlock()
				if dup {
					t.Errorf("Report %p handed out while another caller still holds it", rep)
					return
				}
				if i%2 == 0 {
					mine = append(mine, kept{rep, rep.InvocationID})
					continue
				}
				mu.Lock()
				delete(held, rep)
				mu.Unlock()
				rt.ReleaseReport(rep)
			}
			for _, k := range mine {
				if k.rep.InvocationID != k.id {
					t.Errorf("held Report overwritten: id %d, want %d", k.rep.InvocationID, k.id)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFunctionalInvocationZeroAlloc pins a warm invocation that runs a
// body with a GPU share and releases its Report to zero allocations:
// the queue recycles the GPU event, starts its dispatcher through a
// bound method value, and bounds the dispatch wait with a timer of its
// own. The rows cover the dispatch timeout and an attached observer.
func TestFunctionalInvocationZeroAlloc(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"dispatch-timeout", Config{GPUDispatchTimeout: time.Second}},
		{"observer", Config{Observer: NewObserver(ObserverOptions{})}},
	}
	const n = 200000
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Model = sharedModel(t)
			rt, err := NewRuntime(DesktopPlatform(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			var ran atomic.Int64
			k := computeKernel("zero-alloc", func(i int) {
				if i == 0 {
					ran.Add(1)
				}
			})
			run := func() {
				rep, err := rt.ParallelFor(k, n)
				if err != nil {
					t.Fatal(err)
				}
				if rep.GPUItems == 0 {
					t.Fatal("invocation ran no GPU share")
				}
				rt.ReleaseReport(rep)
			}
			for i := 0; i < 8; i++ {
				run() // decide α, warm the queue's free list and the report pool
			}
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Errorf("warm functional invocation allocates %.1f objects/op, want 0", got)
			}
			if ran.Load() == 0 {
				t.Error("the kernel body never ran")
			}
		})
	}
}

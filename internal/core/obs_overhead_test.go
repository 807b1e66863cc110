package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/obs"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
)

// TestNilObserverZeroAlloc pins the disabled-observability overhead to
// exactly nothing: a scheduler built without an Observer must run its
// steady-state path (kernel already profiled, α already decided) with
// zero heap allocations per invocation, same as before the
// instrumentation existed. The invocation record is nil when
// unobserved, and every hook on it is a nil check. The CI guard ci/check-obs-overhead.sh runs this test plus the
// benchmarks below against ci/obs-overhead-baseline.txt.
func TestNilObserverZeroAlloc(t *testing.T) {
	s := newEAS(t, metrics.EDP, Options{})
	k := memKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil { // profile + warm the α table
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ParallelFor with nil observer allocates %.1f objects/op, want 0", n)
	}
}

// TestEnabledObserverAllocBudget pins the steady-state allocation cost
// of the enabled-observer path, complementing TestNilObserverZeroAlloc:
// with a ring-sink observer attached, a warm invocation (kernel
// profiled, α cached) allocates nothing — its record lives on the
// invocation's stack and the ring copies it. Any allocation means the
// record or a scratch buffer escaped onto the hot path.
func TestEnabledObserverAllocBudget(t *testing.T) {
	o := obs.New(obs.NewRingSink(64), obs.NewRegistry())
	s := newEAS(t, metrics.EDP, Options{Observer: o})
	k := memKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ParallelFor with enabled observer allocates %.1f objects/op, want 0", n)
	}
}

// TestProfilingObserverAllocBudget pins the decision-audit cost on the
// profiling path, in the BenchmarkHotPath regime: every invocation
// profiles, α-searches a fine grid (2,001 points) and fills an Explain.
// The Explain stores the search inputs, not the grid (32 KB at this
// AlphaStep), and the invocation record holds it by value, so an
// observed profiled invocation allocates nothing beyond the
// unobserved run, and under 2 KiB in total. ci/check-obs-overhead.sh
// runs it next to TestNilObserverZeroAlloc.
func TestProfilingObserverAllocBudget(t *testing.T) {
	const n = 5000
	measure := func(o *obs.Observer) (allocs, bytes float64) {
		s := newEAS(t, metrics.EDP, Options{Observer: o, ReprofileEvery: 1, AlphaStep: 0.0005})
		k := compKernel()
		run := func() {
			rep, err := s.ParallelFor(k, n)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Profiled {
				t.Fatal("ReprofileEvery=1 invocation did not profile")
			}
		}
		run()
		allocs = testing.AllocsPerRun(100, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	baseAllocs, _ := measure(nil)
	ring := obs.NewRingSink(64)
	allocs, bytes := measure(obs.New(ring, obs.NewRegistry()))

	recs := ring.Snapshot()
	if last := recs[len(recs)-1]; !last.Ran(obs.PhaseSearch) || last.Explain.Source == nil {
		t.Fatal("the last invocation recorded no Explain: the budget measured no decision audit")
	}
	if allocs > baseAllocs {
		t.Errorf("observed profiling ParallelFor allocates %.1f objects/op, want <= %.1f (the unobserved run)",
			allocs, baseAllocs)
	}
	if bytes >= 2048 {
		t.Errorf("observed profiling ParallelFor allocates %.0f B/op, want < 2 KiB", bytes)
	}
}

func benchObserver(b *testing.B, o *obs.Observer) {
	b.Helper()
	model, err := powerchar.Cached(context.Background(), platform.DesktopSpec(), powerchar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(engine.New(platform.Desktop()), model, metrics.EDP, Options{Observer: o})
	if err != nil {
		b.Fatal(err)
	}
	k := memKernel()
	if _, err := s.ParallelFor(k, 200000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ParallelFor(k, 200000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelForObserverNil measures the historical (observer
// disabled) steady-state scheduling path. ci/check-obs-overhead.sh
// fails the build if its allocs/op ever exceed the committed baseline.
func BenchmarkParallelForObserverNil(b *testing.B) { benchObserver(b, nil) }

// BenchmarkParallelForObserverEnabled measures the same path with a
// ring-sink observer attached, quantifying the cost an application
// opts into (one record + metric recording per invocation).
func BenchmarkParallelForObserverEnabled(b *testing.B) {
	benchObserver(b, obs.New(obs.NewRingSink(obs.DefaultRingCapacity), obs.NewRegistry()))
}

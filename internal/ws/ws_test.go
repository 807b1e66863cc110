package ws

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeLIFOForOwner(t *testing.T) {
	d := NewDeque()
	for i := 0; i < 10; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
	}
	for i := 9; i >= 0; i-- {
		r, ok := d.PopBottom()
		if !ok || r.Start != i {
			t.Fatalf("PopBottom got (%v,%v), want start %d", r, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Error("empty deque returned a value")
	}
}

func TestDequeFIFOForThieves(t *testing.T) {
	d := NewDeque()
	for i := 0; i < 10; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
	}
	for i := 0; i < 10; i++ {
		r, ok := d.Steal()
		if !ok || r.Start != i {
			t.Fatalf("Steal got (%v,%v), want start %d", r, ok, i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Error("empty deque stolen from")
	}
}

func TestDequeGrow(t *testing.T) {
	d := NewDeque()
	const n = 1000 // far beyond the initial 64 capacity
	for i := 0; i < n; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
	}
	if d.Size() != n {
		t.Fatalf("Size = %d, want %d", d.Size(), n)
	}
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		r, ok := d.PopBottom()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if seen[r.Start] {
			t.Fatalf("duplicate element %d", r.Start)
		}
		seen[r.Start] = true
	}
}

func TestDequeMixedOwnerThief(t *testing.T) {
	d := NewDeque()
	d.PushBottom(Range{Start: 1, End: 2})
	d.PushBottom(Range{Start: 2, End: 3})
	if r, ok := d.Steal(); !ok || r.Start != 1 {
		t.Fatalf("Steal = (%v,%v), want start 1", r, ok)
	}
	if r, ok := d.PopBottom(); !ok || r.Start != 2 {
		t.Fatalf("PopBottom = (%v,%v), want start 2", r, ok)
	}
	if _, ok := d.Steal(); ok {
		t.Error("deque should be empty")
	}
}

// Concurrent stress: one owner pushes/pops, many thieves steal; every
// pushed element must be consumed exactly once.
func TestDequeConcurrentConservation(t *testing.T) {
	const total = 20000
	const thieves = 4
	d := NewDeque()
	var consumed atomic.Int64
	var sum atomic.Int64
	var wg sync.WaitGroup

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < total {
				if r, ok := d.Steal(); ok {
					sum.Add(int64(r.Start))
					consumed.Add(1)
				}
			}
		}()
	}
	// Owner: push all, interleaving occasional pops.
	for i := 0; i < total; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
		if i%3 == 0 {
			if r, ok := d.PopBottom(); ok {
				sum.Add(int64(r.Start))
				consumed.Add(1)
			}
		}
	}
	for consumed.Load() < total {
		if r, ok := d.PopBottom(); ok {
			sum.Add(int64(r.Start))
			consumed.Add(1)
		}
	}
	wg.Wait()
	want := int64(total) * (total - 1) / 2
	if sum.Load() != want {
		t.Errorf("element sum = %d, want %d (lost or duplicated work)", sum.Load(), want)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	p := NewPool(4)
	const n = 100000
	hits := make([]int32, n)
	p.ParallelFor(n, 64, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

func TestParallelForSmallAndEdge(t *testing.T) {
	p := NewPool(8)
	var count atomic.Int64
	p.ParallelFor(0, 10, func(int) { count.Add(1) })
	if count.Load() != 0 {
		t.Error("n=0 should run nothing")
	}
	p.ParallelFor(5, 100, func(int) { count.Add(1) }) // below grain
	if count.Load() != 5 {
		t.Errorf("n=5 ran %d iterations", count.Load())
	}
	single := NewPool(1)
	count.Store(0)
	single.ParallelFor(1000, 10, func(int) { count.Add(1) })
	if count.Load() != 1000 {
		t.Errorf("single worker ran %d iterations", count.Load())
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() <= 0 {
		t.Error("default pool should have workers")
	}
	if NewPool(3).Workers() != 3 {
		t.Error("explicit worker count ignored")
	}
}

// Property: ParallelFor computes the same sum as a serial loop.
func TestParallelForSumProperty(t *testing.T) {
	p := NewPool(4)
	f := func(n uint16, grain uint8) bool {
		nn := int(n) % 5000
		var sum atomic.Int64
		p.ParallelFor(nn, int(grain), func(i int) { sum.Add(int64(i)) })
		return sum.Load() == int64(nn)*int64(nn-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Regression for the cancellation/completion race: a loop that has
// executed every iteration must return nil even when the context is
// cancelled at the same instant. The last body to execute cancels the
// context, so completion and cancellation land together; whatever the
// schedule, the loop must (a) have run every index exactly once and
// (b) report either success or cancellation — and across many trials
// success must actually occur, which the old code never did (it
// returned ctx.Err() even after observing the drained pool).
func TestCompletedLoopNeverReportsSpuriousCancellation(t *testing.T) {
	const trials = 300
	const n = 512
	p := NewPool(4)
	nilErrs := 0
	for trial := 0; trial < trials; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		var count atomic.Int64
		err := p.ParallelForCtx(ctx, n, 16, func(int) {
			if count.Add(1) == n {
				cancel()
			}
		})
		if got := count.Load(); got != n {
			t.Fatalf("trial %d: executed %d iterations, want %d", trial, got, n)
		}
		switch {
		case err == nil:
			nilErrs++
		case errors.Is(err, context.Canceled):
			// Cancellation observed before the final bookkeeping landed:
			// acceptable, the race was real.
		default:
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		cancel()
	}
	if nilErrs == 0 {
		t.Errorf("all %d fully-drained loops reported cancellation; a completed loop must return nil", trials)
	}
}

// Deque stress across ring growth: thieves steal continuously while
// the owner pushes enough elements (in bursts, with interleaved pops)
// to force the ring through several doublings. Every element must be
// consumed exactly once.
func TestDequeStealDuringGrowth(t *testing.T) {
	const (
		total   = 1 << 17 // forces growth 64 -> 131072 under backlog
		burst   = 4096
		thieves = 4
	)
	d := NewDeque()
	taken := make([]int32, total)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < total {
				if r, ok := d.Steal(); ok {
					atomic.AddInt32(&taken[r.Start], 1)
					consumed.Add(1)
				}
			}
		}()
	}
	for next := 0; next < total; {
		stop := next + burst
		if stop > total {
			stop = total
		}
		for ; next < stop; next++ {
			d.PushBottom(Range{Start: next, End: next + 1})
		}
		// Interleave owner pops against in-flight steals.
		for i := 0; i < burst/8; i++ {
			if r, ok := d.PopBottom(); ok {
				atomic.AddInt32(&taken[r.Start], 1)
				consumed.Add(1)
			}
		}
	}
	for consumed.Load() < total {
		if r, ok := d.PopBottom(); ok {
			atomic.AddInt32(&taken[r.Start], 1)
			consumed.Add(1)
		}
	}
	wg.Wait()
	for i, c := range taken {
		if c != 1 {
			t.Fatalf("element %d consumed %d times", i, c)
		}
	}
}

// A pool must support many loops in flight at once: concurrent callers
// share one Pool and every loop still executes each index exactly once.
func TestPoolConcurrentLoops(t *testing.T) {
	p := NewPool(4)
	const (
		callers = 8
		n       = 40000
	)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	hits := make([][]int32, callers)
	for c := 0; c < callers; c++ {
		hits[c] = make([]int32, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = p.ParallelFor(n, 64, func(i int) {
				atomic.AddInt32(&hits[c][i], 1)
			})
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i, h := range hits[c] {
			if h != 1 {
				t.Fatalf("caller %d index %d executed %d times", c, i, h)
			}
		}
	}
}

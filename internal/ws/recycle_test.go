package ws

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForSteadyStateAllocs pins the per-loop cost of a warmed
// pool: the loop state is recycled, so neither the iteration count nor
// the chunk count may add allocations. The bound is the helpers' go
// statements (workers−1); the recycled state makes those free too.
func TestParallelForSteadyStateAllocs(t *testing.T) {
	var sink atomic.Int64
	item := func(i int) {
		if i == 0 {
			sink.Add(1)
		}
	}
	for _, workers := range []int{2, 4} {
		for _, n := range []int{4096, 1 << 16} {
			p := NewPool(workers)
			loops := map[string]func(){
				"ParallelFor": func() { _ = p.ParallelFor(n, 0, item) },
			}
			for name, run := range loops {
				t.Run(fmt.Sprintf("%s/workers=%d/n=%d", name, workers, n), func(t *testing.T) {
					for i := 0; i < 4; i++ {
						run() // grow the rings and the parker's list
					}
					if got := testing.AllocsPerRun(100, run); got > float64(workers-1) {
						t.Errorf("warmed loop allocates %.1f objects, want <= %d", got, workers-1)
					}
				})
			}
		}
	}
}

// TestLoopStateNotRecycledWhileHeld pins the recycling invariant on one
// state: a cancelled loop whose straggler is still inside a chunk keeps
// its state off the free list, loops started meanwhile get another
// state, and the straggler returns it when it exits.
func TestLoopStateNotRecycledWhileHeld(t *testing.T) {
	p := NewPool(2)
	if err := p.ParallelFor(4096, 0, func(int) {}); err != nil {
		t.Fatal(err)
	}
	if len(p.free) != 1 {
		t.Fatalf("free list holds %d states after one loop, want 1", len(p.free))
	}
	held := p.free[0]

	ctx, cancel := context.WithCancel(context.Background())
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	go func() {
		<-entered
		cancel()
	}()
	err := p.ParallelForCtx(ctx, 4096, 256, func(i int) {
		once.Do(func() { close(entered) })
		<-gate
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if held.refs.Load() == 0 {
		t.Fatal("straggler's state holds no reference while its chunk blocks")
	}
	for i := 0; i < 20; i++ {
		if err := p.ParallelFor(4096, 0, func(int) {}); err != nil {
			t.Fatal(err)
		}
		p.freeMu.Lock()
		for _, l := range p.free {
			if l == held {
				p.freeMu.Unlock()
				t.Fatal("a state a straggler still holds is on the free list")
			}
		}
		p.freeMu.Unlock()
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.freeMu.Lock()
		back := false
		for _, l := range p.free {
			back = back || l == held
		}
		p.freeMu.Unlock()
		if back {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the straggler's state never returned to the free list")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopRecyclingConcurrent runs loops from 8 goroutines on one pool
// and stamps every index. Completed loops must run each index exactly
// once; cancelled loops, whose straggler chunk blocks until later
// loops have started on recycled states, at most once. Handing a
// straggler's state to a new loop would either trip acquire's
// reference check or run chunks of one loop under another's counters.
func TestLoopRecyclingConcurrent(t *testing.T) {
	const (
		callers = 8
		rounds  = 30
	)
	p := NewPool(4)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- recyclingCaller(p, c, rounds)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func recyclingCaller(p *Pool, c, rounds int) error {
	for round := 0; round < rounds; round++ {
		n := 1000 + 97*c + 31*round
		hits := make([]atomic.Int32, n)
		stamp := func(i int) { hits[i].Add(1) }
		var err error
		switch round % 4 {
		case 0:
			err = p.ParallelFor(n, 16, stamp)
		case 1:
			// Cancellable but never cancelled: every worker is a helper
			// and the caller waits on the loop.
			ctx, cancel := context.WithCancel(context.Background())
			err = p.ParallelForCtx(ctx, n, 16, stamp)
			cancel()
		case 2:
			lo := n / 3
			err = p.ParallelForIn(context.Background(), lo, n, 16, stamp)
			for i := 0; i < lo; i++ {
				stamp(i)
			}
		case 3:
			if err := cancelledLoop(p, hits); err != nil {
				return fmt.Errorf("caller %d round %d: %v", c, round, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("caller %d round %d: %v", c, round, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				return fmt.Errorf("caller %d round %d: index %d ran %d times", c, round, i, h)
			}
		}
	}
	return nil
}

// cancelledLoop cancels a loop while one chunk blocks, runs two more
// loops while that straggler still holds its state, then releases it
// and checks that no index of the cancelled loop ran twice.
func cancelledLoop(p *Pool, hits []atomic.Int32) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	blocked := make(chan struct{})
	finished := make(chan struct{})
	var once sync.Once
	go func() {
		<-blocked
		cancel()
	}()
	err := p.ParallelForCtx(ctx, len(hits), 16, func(i int) {
		hits[i].Add(1)
		if i == len(hits)/2 {
			once.Do(func() { close(blocked) })
			<-gate
			close(finished)
		}
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	for k := 0; k < 2; k++ {
		var ran atomic.Int64
		if err := p.ParallelFor(2048, 16, func(int) { ran.Add(1) }); err != nil {
			return err
		}
		if ran.Load() != 2048 {
			return fmt.Errorf("loop beside a straggler ran %d of 2048 items", ran.Load())
		}
	}
	close(gate)
	<-finished
	for i := range hits {
		if h := hits[i].Load(); h > 1 {
			return fmt.Errorf("cancelled loop ran index %d %d times", i, h)
		}
	}
	return nil
}

// TestParallelForInPanicIndex checks that a panic in a [lo, hi) loop
// reports the absolute index body received, on the inline and the
// work-stealing path.
func TestParallelForInPanicIndex(t *testing.T) {
	p := NewPool(4)
	for _, tc := range []struct{ lo, hi, at int }{
		{1000, 1050, 1040},   // below grain: inline
		{5000, 60000, 59990}, // work stealing
	} {
		err := p.ParallelForIn(context.Background(), tc.lo, tc.hi, 0, func(i int) {
			if i < tc.lo || i >= tc.hi {
				panic(fmt.Sprintf("index %d outside [%d, %d)", i, tc.lo, tc.hi))
			}
			if i == tc.at {
				panic("kernel bug")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "kernel bug" {
			t.Fatalf("[%d, %d): err = %v, want the body's *PanicError", tc.lo, tc.hi, err)
		}
		if pe.Index != tc.at {
			t.Errorf("[%d, %d): panic index = %d, want %d", tc.lo, tc.hi, pe.Index, tc.at)
		}
	}
}

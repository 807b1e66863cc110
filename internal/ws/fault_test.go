package ws

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForRecoversPanic(t *testing.T) {
	p := NewPool(4)
	const n = 10000
	var ran atomic.Int64
	err := p.ParallelFor(n, 64, func(i int) {
		if i == 4321 {
			panic("kernel bug")
		}
		ran.Add(1)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 4321 {
		t.Errorf("panic index = %d, want 4321", pe.Index)
	}
	if pe.Value != "kernel bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "kernel bug") {
		t.Errorf("panic error missing stack or message: %v", err)
	}
	// The pool drained: workers stopped without running everything,
	// and the pool is immediately reusable.
	if ran.Load() >= n {
		t.Errorf("all %d iterations ran despite panic", n)
	}
	var count atomic.Int64
	if err := p.ParallelFor(1000, 16, func(int) { count.Add(1) }); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
	if count.Load() != 1000 {
		t.Errorf("post-panic loop ran %d iterations, want 1000", count.Load())
	}
}

func TestParallelForPanicInInlinePath(t *testing.T) {
	p := NewPool(4)
	err := p.ParallelFor(5, 100, func(i int) { // below grain: inline path
		if i == 3 {
			panic("small loop bug")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("inline path err = %v, want *PanicError at 3", err)
	}
}

// Every chunk of the upper half panics, on several workers at once:
// the loop reports one of those panics and drains.
func TestParallelForRecoversConcurrentPanics(t *testing.T) {
	p := NewPool(4)
	err := p.ParallelFor(10000, 128, func(i int) {
		if i >= 5000 {
			panic("chunk bug")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index < 5000 {
		t.Errorf("panic attributed to index %d, want >= 5000", pe.Index)
	}
}

func TestParallelForCtxCancelledBeforeStart(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := p.ParallelForCtx(ctx, 1000, 16, func(int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d iterations ran on a pre-cancelled context", ran.Load())
	}
}

func TestParallelForCtxReturnsPromptlyOnCancel(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	gate := make(chan struct{})
	var entered atomic.Int64
	done := make(chan error, 1)
	go func() {
		// Every chunk blocks on the gate, so the loop can only finish
		// via cancellation.
		done <- p.ParallelForCtx(ctx, 100000, 256, func(i int) {
			entered.Add(1)
			<-gate
		})
	}()
	for entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParallelForCtx did not return promptly after cancel")
	}
	close(gate) // release the blocked background workers
}

func TestParallelForCtxCompletesWithoutCancel(t *testing.T) {
	p := NewPool(4)
	var sum atomic.Int64
	err := p.ParallelForCtx(context.Background(), 10000, 64, func(i int) {
		sum.Add(int64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10000) * 9999 / 2; sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

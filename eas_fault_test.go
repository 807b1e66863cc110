package eas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultRuntime builds a runtime with a fault plan attached and a GPU
// dispatch timeout suitable for hang tests.
func faultRuntime(t *testing.T, plan *FaultPlan, timeout time.Duration) *Runtime {
	t.Helper()
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:             EDP,
		Model:              sharedModel(t),
		Faults:             plan,
		GPUDispatchTimeout: timeout,
		GPURetry:           RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// computeKernel is GPU-friendly so the scheduler picks a non-zero α,
// giving the functional layer a real GPU share to degrade.
func computeKernel(name string, body func(int)) Kernel {
	return Kernel{
		Name:         name,
		FLOPsPerItem: 20000, MemOpsPerItem: 20, L3MissRatio: 0.02, InstructionsPerItem: 3000,
		Body: body,
	}
}

func TestKernelPanicIsIsolated(t *testing.T) {
	rt := newRuntime(t, EDP)
	defer rt.Close()
	const n = 200000
	_, err := rt.ParallelFor(memKernel(func(i int) {
		if i == n-10 { // land in the CPU share of any split
			panic("bad index math")
		}
	}), n)
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("err = %v, want *KernelPanicError", err)
	}
	if kp.Kernel != "public-mem" || kp.Value != "bad index math" || len(kp.Stack) == 0 {
		t.Errorf("panic detail = kernel %q value %v stack %d bytes", kp.Kernel, kp.Value, len(kp.Stack))
	}
	if kp.Index != n-10 {
		t.Errorf("panic index = %d, want %d (the absolute iteration index)", kp.Index, n-10)
	}
	// The pool drained and the runtime survives: the next invocation
	// runs to completion.
	var ran atomic.Int64
	rep, err := rt.ParallelFor(memKernel(func(int) { ran.Add(1) }), n)
	if err != nil {
		t.Fatalf("runtime unusable after kernel panic: %v", err)
	}
	if rep == nil || ran.Load() == 0 {
		t.Error("post-panic invocation did no work")
	}
}

func TestGPUSidePanicSurfacesTyped(t *testing.T) {
	rt := newRuntime(t, EDP)
	defer rt.Close()
	// Panic at index 0, which always lands in the GPU share when α > 0;
	// if the schedule picks α = 0 the CPU pool recovers it instead —
	// either way the typed error must surface and the process survive.
	_, err := rt.ParallelFor(computeKernel("gpu-panic", func(i int) {
		if i == 0 {
			panic("device fault")
		}
	}), 200000)
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("err = %v, want *KernelPanicError", err)
	}
	if kp.Index != 0 || kp.Value != "device fault" {
		t.Errorf("panic detail = %+v", kp)
	}
}

func TestHangTimeoutReexecutesOnCPU(t *testing.T) {
	plan := NewFaultPlan(5)
	plan.HangKernels(1)
	rt := faultRuntime(t, plan, 30*time.Millisecond)
	defer rt.Close()

	const n = 200000
	hits := make([]int32, n)
	body := func(i int) { atomic.AddInt32(&hits[i], 1) }
	rep, err := rt.ParallelFor(computeKernel("hang", body), n)
	if err != nil {
		t.Fatalf("hang must degrade, not fail: %v", err)
	}
	if plan.Stats().KernelHangs != 1 {
		t.Skip("scheduler picked α=0; no GPU dispatch to hang")
	}
	if rep.FallbackReason != FallbackGPUTimeout {
		t.Errorf("FallbackReason = %q, want %q", rep.FallbackReason, FallbackGPUTimeout)
	}
	if !errors.Is(rep.FallbackError, ErrGPUTimeout) {
		t.Errorf("FallbackError = %v, want ErrGPUTimeout", rep.FallbackError)
	}
	if rep.ReexecutedItems <= 0 {
		t.Error("ReexecutedItems = 0 after a timed-out dispatch")
	}
	// Functional correctness: every index executed exactly once.
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times, want exactly 1", i, h)
		}
	}
	// The degraded run must not poison the remembered α.
	if a, ok := rt.Alpha("hang"); !ok || a <= 0 {
		t.Errorf("remembered α = %v (ok=%v); timeout fallback dragged it down", a, ok)
	}
}

func TestTransientEnqueueErrorRetriesThenSucceeds(t *testing.T) {
	plan := NewFaultPlan(5)
	plan.FailEnqueues(2) // within the 3-attempt budget
	rt := faultRuntime(t, plan, 0)
	defer rt.Close()

	const n = 200000
	hits := make([]int32, n)
	rep, err := rt.ParallelFor(computeKernel("flaky-enqueue", func(i int) {
		atomic.AddInt32(&hits[i], 1)
	}), n)
	if err != nil {
		t.Fatalf("transient enqueue failures should be retried away: %v", err)
	}
	if plan.Stats().EnqueueErrors == 0 {
		t.Skip("scheduler picked α=0; no functional enqueue issued")
	}
	if rep.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", rep.Retries)
	}
	if rep.FallbackReason != FallbackNone {
		t.Errorf("FallbackReason = %q, want none (the retry succeeded)", rep.FallbackReason)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times, want exactly 1", i, h)
		}
	}
}

func TestPersistentEnqueueErrorFallsBackToCPU(t *testing.T) {
	plan := NewFaultPlan(5)
	plan.FailEnqueues(50) // beyond any retry budget
	rt := faultRuntime(t, plan, 0)
	defer rt.Close()

	const n = 200000
	hits := make([]int32, n)
	rep, err := rt.ParallelFor(computeKernel("dead-enqueue", func(i int) {
		atomic.AddInt32(&hits[i], 1)
	}), n)
	if err != nil {
		t.Fatalf("persistent enqueue failure must degrade, not fail: %v", err)
	}
	if plan.Stats().EnqueueErrors == 0 {
		t.Skip("scheduler picked α=0; no functional enqueue issued")
	}
	if rep.FallbackReason != FallbackEnqueueError {
		t.Errorf("FallbackReason = %q, want %q", rep.FallbackReason, FallbackEnqueueError)
	}
	if !errors.Is(rep.FallbackError, ErrGPUBusy) {
		t.Errorf("FallbackError = %v, want errors.Is ErrGPUBusy", rep.FallbackError)
	}
	// All three attempts of the default budget were rejected; the final
	// exhausted attempt counts toward Retries like the others.
	if rep.Retries != 3 {
		t.Errorf("Retries = %d, want 3 (dispatch attempts = successes + Retries)", rep.Retries)
	}
	if rep.ReexecutedItems <= 0 {
		t.Error("ReexecutedItems = 0 after enqueue fallback")
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times, want exactly 1", i, h)
		}
	}
}

func TestTransientSimulatedBusyRetries(t *testing.T) {
	plan := NewFaultPlan(5)
	plan.GPUBusyFor(2)
	rt := faultRuntime(t, plan, 0)
	defer rt.Close()
	rep, err := rt.ParallelFor(computeKernel("sim-busy", nil), 200000)
	if err != nil {
		t.Fatalf("transient busy should succeed within GPURetry attempts: %v", err)
	}
	if rep.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rep.Retries)
	}
	if rep.GPUBusyFallback || rep.FallbackReason != FallbackNone {
		t.Errorf("unexpected fallback: %q", rep.FallbackReason)
	}
}

func TestStaticGPUBusyReportsTypedError(t *testing.T) {
	rt := newRuntime(t, EDP)
	defer rt.Close()
	rt.Platform().SetGPUBusy(true)
	defer rt.Platform().SetGPUBusy(false)
	rep, err := rt.ParallelFor(memKernel(nil), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GPUBusyFallback {
		t.Fatal("expected GPUBusyFallback")
	}
	if rep.FallbackReason != FallbackGPUBusy {
		t.Errorf("FallbackReason = %q, want %q", rep.FallbackReason, FallbackGPUBusy)
	}
	if !errors.Is(rep.FallbackError, ErrGPUBusy) {
		t.Errorf("FallbackError = %v, want errors.Is ErrGPUBusy", rep.FallbackError)
	}
}

func TestParallelForCtxCancellation(t *testing.T) {
	rt := newRuntime(t, EDP)
	defer rt.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.ParallelForCtx(pre, memKernel(func(int) {}), 200000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx err = %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate() // before the deferred Close, so drain never deadlocks
	var entered atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := rt.ParallelForCtx(ctx, memKernel(func(i int) {
			entered.Add(1)
			<-gate
		}), 200000)
		done <- err
	}()
	for entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ParallelForCtx did not return promptly after cancel")
	}
	openGate()
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	rt := newRuntime(t, EDP)
	finished := make(chan struct{})
	go func() {
		rt.Close()
		rt.Close() // second Close must not hang or panic
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("double Close hung")
	}
	// A released runtime rejects new buffers rather than crashing.
	if _, err := rt.CreateBuffer("late", 100); err == nil {
		t.Error("CreateBuffer after Close should fail")
	}
}

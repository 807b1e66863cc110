package eas

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/cl"
)

// gpuShareRun is one invocation launched in the background: its
// per-index hit counts, and its outcome once done is closed.
type gpuShareRun struct {
	hits []int32
	rep  *Report
	err  error
	done chan struct{}
}

// startGPUShare launches rt.ParallelFor on the GPU-friendly kernel name
// in the background. onFirst runs inside index 0 — the first item of
// the GPU share whenever α > 0 — before the index is counted.
func startGPUShare(rt *Runtime, name string, n int, onFirst func()) *gpuShareRun {
	r := &gpuShareRun{hits: make([]int32, n), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.rep, r.err = rt.ParallelFor(computeKernel(name, func(i int) {
			if i == 0 {
				onFirst()
			}
			atomic.AddInt32(&r.hits[i], 1)
		}), n)
	}()
	return r
}

// check fails the test unless the run succeeded on schedule with a GPU
// share and executed every index exactly once.
func (r *gpuShareRun) check(t *testing.T, label string) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("%s: %v", label, r.err)
	}
	if r.rep.GPUItems == 0 || r.rep.FallbackReason != FallbackNone {
		t.Fatalf("%s: GPUItems=%v fallback=%q, want a GPU share run as scheduled",
			label, r.rep.GPUItems, r.rep.FallbackReason)
	}
	for i, h := range r.hits {
		if h != 1 {
			t.Fatalf("%s: index %d executed %d times, want exactly 1", label, i, h)
		}
	}
}

// warmGPUKernel decides the kernel's α with a body-less invocation
// (no functional enqueue) and requires a GPU share.
func warmGPUKernel(t *testing.T, rt *Runtime, name string, n int) {
	t.Helper()
	rep, err := rt.ParallelFor(computeKernel(name, nil), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUItems == 0 {
		t.Fatalf("kernel %q scheduled CPU-only; no GPU share to test", name)
	}
}

// waitClosed waits up to 5s for ch to close.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out after 5s waiting for %s", what)
	}
}

// The GPU shares of concurrent invocations run at the same time: each
// invocation borrows its own in-order queue, so neither GPU share
// waits behind the other's. Each share's first item waits for the
// other share to start; with one queue shared by both invocations the
// second share could only start after the first finished.
func TestConcurrentGPUSharesOverlap(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	rt, err := NewRuntime(DesktopPlatform(), Config{Model: sharedModel(t), Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const n = 200000
	warmGPUKernel(t, rt, "overlap", n)

	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var missed [2]atomic.Bool
	var runs [2]*gpuShareRun
	for me := range runs {
		me := me
		runs[me] = startGPUShare(rt, "overlap", n, func() {
			close(started[me])
			select {
			case <-started[1-me]:
			case <-time.After(5 * time.Second):
				missed[me].Store(true)
			}
		})
	}
	for me, r := range runs {
		<-r.done
		if missed[me].Load() {
			t.Fatalf("invocation %d: the other invocation's GPU share did not start within 5s of its own", me)
		}
		r.check(t, fmt.Sprintf("invocation %d", me))
	}

	// Each share went through its own queue; the collector still sums
	// the enqueues of every queue.
	var b strings.Builder
	if err := observer.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if want := "eas_cl_enqueues_total 2\n"; !strings.Contains(b.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, b.String())
	}
}

// A hung dispatch holds only its own invocation's queue: another
// tenant's GPU share completes while the hung invocation still waits
// out its dispatch timeout, and the hung one then degrades as before.
func TestHungDispatchStallsOnlyItsInvocation(t *testing.T) {
	plan := NewFaultPlan(5)
	const timeout = 2 * time.Second
	rt := faultRuntime(t, plan, timeout)
	defer rt.Close()
	const n = 200000
	warmGPUKernel(t, rt, "hang-iso", n)

	plan.HangKernels(1)
	hung := startGPUShare(rt, "hang-iso", n, func() {})
	deadline := time.Now().Add(5 * time.Second)
	for plan.Stats().KernelHangs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first GPU dispatch never hung")
		}
		time.Sleep(time.Millisecond)
	}

	// The hung invocation's GPU share starts at index 0 and runs only
	// when its timeout re-executes it on the CPU, so a zero count there
	// means the timeout has not yet fired.
	hangSeen := time.Now()
	healthy := startGPUShare(rt, "hang-iso", n, func() {})
	waitClosed(t, healthy.done, "the healthy tenant")
	if took := time.Since(hangSeen); took >= timeout || atomic.LoadInt32(&hung.hits[0]) != 0 {
		t.Fatalf("the healthy tenant completed %v after the hang, not before the hung invocation's %v timeout", took, timeout)
	}
	healthy.check(t, "healthy tenant")

	waitClosed(t, hung.done, "the hung invocation's timeout")
	if hung.err != nil {
		t.Fatalf("hang must degrade, not fail: %v", hung.err)
	}
	if hung.rep.FallbackReason != FallbackGPUTimeout || hung.rep.ReexecutedItems == 0 {
		t.Errorf("hung invocation: fallback=%q reexecuted=%d, want a GPU-timeout re-execution",
			hung.rep.FallbackReason, hung.rep.ReexecutedItems)
	}
	for i, h := range hung.hits {
		if h != 1 {
			t.Fatalf("hung invocation: index %d executed %d times, want exactly 1", i, h)
		}
	}
}

// Close drains every queue the runtime lent, not just the first: with
// a GPU share still running on a second borrowed queue after the drain
// timeout, Close blocks until it completes, and the invocation finishes
// cleanly with every index run once.
func TestCloseDrainsEveryBorrowedQueue(t *testing.T) {
	const drain = 20 * time.Millisecond
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Model: sharedModel(t),
		State: StatePolicy{DrainTimeout: drain},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const n = 200000
	warmGPUKernel(t, rt, "drain", n)

	var gates [2]chan struct{}
	var opens [2]sync.Once
	open := func(i int) { opens[i].Do(func() { close(gates[i]) }) }
	var started [2]chan struct{}
	for i := range gates {
		gates[i], started[i] = make(chan struct{}), make(chan struct{})
	}
	// Deferred after Close, so they run first: a failing test still
	// unblocks the bodies, and the invocations and Close can finish.
	defer open(1)
	defer open(0)
	hold := func(i int) func() {
		return func() { close(started[i]); <-gates[i] }
	}

	// a borrows the context's first queue and holds it, so b has to
	// borrow a second one.
	a := startGPUShare(rt, "drain", n, hold(0))
	waitClosed(t, started[0], "the first GPU share to start")
	b := startGPUShare(rt, "drain", n, hold(1))
	waitClosed(t, started[1], "the second GPU share to start")
	open(0)
	waitClosed(t, a.done, "the first invocation")
	a.check(t, "first invocation")

	closed := make(chan error, 1)
	go func() { closed <- rt.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a GPU share was still running on a borrowed queue", err)
	case <-time.After(drain + 200*time.Millisecond):
	}
	open(1)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last GPU share completed")
	}
	waitClosed(t, b.done, "the second invocation")
	b.check(t, "second invocation")
}

// Close is bounded even when a GPU dispatch hangs with no dispatch
// timeout configured: once the drain budget expires, Close abandons
// the hung command, so the invocation waiting on it returns and Close
// completes. The abandoned share never runs, so no index runs twice.
func TestCloseBoundedWithHungDispatch(t *testing.T) {
	plan := NewFaultPlan(7)
	// Deferred first, so it runs last: if Close is stuck, releasing the
	// hang lets the test's goroutines exit.
	defer plan.ReleaseHangs()
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Model:  sharedModel(t),
		Faults: plan,
		State:  StatePolicy{DrainTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A memory-bound kernel splits the range: the GPU share is
	// enqueued before the CPU share starts, so the CPU share's last
	// index running proves the hung command is on its queue.
	const n = 200000
	split := func(body func(int)) Kernel {
		return Kernel{
			Name:         "close-hang",
			FLOPsPerItem: 20, MemOpsPerItem: 20, L3MissRatio: 0.6, InstructionsPerItem: 3000,
			Body: body,
		}
	}
	rep, err := rt.ParallelFor(split(nil), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUItems == 0 || rep.CPUItems == 0 {
		t.Fatalf("split kernel ran GPU=%v CPU=%v items, want both shares", rep.GPUItems, rep.CPUItems)
	}

	plan.HangKernels(1)
	enqueued := make(chan struct{})
	var once sync.Once
	hits := make([]int32, n)
	var inv struct {
		err  error
		done chan struct{}
	}
	inv.done = make(chan struct{})
	go func() {
		defer close(inv.done)
		_, inv.err = rt.ParallelFor(split(func(i int) {
			if i == n-1 {
				once.Do(func() { close(enqueued) })
			}
			atomic.AddInt32(&hits[i], 1)
		}), n)
	}()
	waitClosed(t, enqueued, "the invocation's CPU share to start")

	closed := make(chan error, 1)
	go func() { closed <- rt.Close() }()
	select {
	case err := <-closed:
		if err == nil || !strings.Contains(err.Error(), "drain timed out") {
			t.Errorf("Close = %v, want the drain-timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked 5s after it started, behind a hung GPU dispatch")
	}
	waitClosed(t, inv.done, "the invocation behind the abandoned dispatch")
	if !errors.Is(inv.err, cl.ErrAborted) {
		t.Errorf("invocation err = %v, want the abandoned dispatch's ErrAborted", inv.err)
	}
	for i, h := range hits {
		if h > 1 {
			t.Fatalf("index %d executed %d times, want at most once", i, h)
		}
	}
	if plan.Stats().KernelHangs > 1 {
		t.Errorf("KernelHangs = %d, want at most the one scripted hang", plan.Stats().KernelHangs)
	}
}

package cl

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/platform"
)

func TestEnqueueOnReleasedContext(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	q := NewCommandQueue(ctx)
	ctx.Release()
	if _, err := q.EnqueueNDRange(Kernel{Name: "late"}, 0, 10); !errors.Is(err, ErrReleased) {
		t.Errorf("enqueue on released context err = %v, want ErrReleased", err)
	}
}

func TestBufferReleaseAfterContextRelease(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	b, err := ctx.CreateBuffer("orphan", 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Release()
	if err := b.Release(); !errors.Is(err, ErrReleased) {
		t.Errorf("buffer release after context release err = %v, want ErrReleased", err)
	}
	// Releasing the context twice is a no-op.
	ctx.Release()
}

func TestConcurrentBufferCreateRelease(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := ctx.CreateBuffer("scratch", 4096)
				if err != nil {
					t.Error(err)
					return
				}
				if err := b.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ctx.AllocatedBytes(); got != 0 {
		t.Errorf("allocated = %d after balanced create/release, want 0", got)
	}
}

func TestConcurrentReleaseRaceWithContextRelease(t *testing.T) {
	ctx := NewContext(platform.Desktop())
	var bufs []*Buffer
	for i := 0; i < 64; i++ {
		b, err := ctx.CreateBuffer("b", 100)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	var wg sync.WaitGroup
	wg.Add(len(bufs) + 1)
	go func() {
		defer wg.Done()
		ctx.Release()
	}()
	for _, b := range bufs {
		go func(b *Buffer) {
			defer wg.Done()
			// Exactly one of {this call, context release} frees the
			// buffer; whichever loses must see ErrReleased, never a
			// double free or negative accounting.
			if err := b.Release(); err != nil && !errors.Is(err, ErrReleased) {
				t.Errorf("unexpected release error: %v", err)
			}
		}(b)
	}
	wg.Wait()
	if got := ctx.AllocatedBytes(); got != 0 {
		t.Errorf("allocated = %d after context release, want 0", got)
	}
}

func TestKernelPanicIsolated(t *testing.T) {
	q := NewCommandQueue(NewContext(platform.Desktop()))
	var ran atomic.Int64
	ev, err := q.EnqueueNDRange(Kernel{Name: "buggy", Body: func(gid int) {
		if gid == 7 {
			panic("device exception")
		}
		ran.Add(1)
	}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	werr := ev.Wait()
	var pe *PanicError
	if !errors.As(werr, &pe) {
		t.Fatalf("Wait err = %v, want *PanicError", werr)
	}
	if pe.Kernel != "buggy" || pe.GID != 7 || len(pe.Stack) == 0 {
		t.Errorf("panic detail = %+v", pe)
	}
	if ev.Status() != Failed {
		t.Errorf("status = %v, want Failed", ev.Status())
	}
	// The queue survives: the next command executes normally.
	ev2, err := q.EnqueueNDRange(Kernel{Name: "ok", Body: func(int) { ran.Add(1) }}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Wait(); err != nil {
		t.Fatalf("queue unusable after panic: %v", err)
	}
}

func TestHangTimeoutAbandon(t *testing.T) {
	cctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	cctx.SetFaultPlan(plan)
	q := NewCommandQueue(cctx)

	var ran atomic.Int64
	body := func(int) { ran.Add(1) }
	ev, err := q.EnqueueNDRange(Kernel{Name: "hang", Body: body}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if werr := ev.WaitCtx(wctx); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx on hung kernel = %v, want DeadlineExceeded", werr)
	}
	ev.Abandon()
	if werr := ev.Wait(); !errors.Is(werr, ErrAborted) {
		t.Fatalf("after Abandon, Wait = %v, want ErrAborted", werr)
	}
	if ev.Status() != Aborted {
		t.Errorf("status = %v, want Aborted", ev.Status())
	}
	if ran.Load() != 0 {
		t.Errorf("hung kernel executed %d items; must execute none", ran.Load())
	}
	// The abandoned command released the queue: later work proceeds.
	ev2, err := q.EnqueueNDRange(Kernel{Name: "after", Body: body}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Wait(); err != nil {
		t.Fatalf("queue blocked after abandoning hung command: %v", err)
	}
	if ran.Load() != 10 {
		t.Errorf("follow-up ran %d items, want 10", ran.Load())
	}
}

func TestTransientEnqueueError(t *testing.T) {
	cctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.EnqueueError, 2, 0)
	cctx.SetFaultPlan(plan)
	q := NewCommandQueue(cctx)

	for i := 0; i < 2; i++ {
		if _, err := q.EnqueueNDRange(Kernel{Name: "k"}, 0, 10); !errors.Is(err, ErrDeviceBusy) {
			t.Fatalf("enqueue %d err = %v, want ErrDeviceBusy", i, err)
		}
	}
	ev, err := q.EnqueueNDRange(Kernel{Name: "k"}, 0, 10)
	if err != nil {
		t.Fatalf("third enqueue should succeed: %v", err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitCtxCompletesNormally(t *testing.T) {
	q := NewCommandQueue(NewContext(platform.Desktop()))
	ev, err := q.EnqueueNDRange(Kernel{Name: "fast", Body: func(int) {}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if werr := ev.WaitCtx(context.Background()); werr != nil {
		t.Errorf("WaitCtx = %v, want nil", werr)
	}
	if ev.Status() != Complete {
		t.Errorf("status = %v, want Complete", ev.Status())
	}
}

func TestReleaseHangsUnblocksWithoutExecuting(t *testing.T) {
	cctx := NewContext(platform.Desktop())
	plan := faultinject.New(1)
	plan.Script(faultinject.KernelHang, 1, 0)
	cctx.SetFaultPlan(plan)
	q := NewCommandQueue(cctx)

	var ran atomic.Int64
	ev, err := q.EnqueueNDRange(Kernel{Name: "hang", Body: func(int) { ran.Add(1) }}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan.ReleaseHangs()
	if werr := ev.Wait(); !errors.Is(werr, ErrAborted) {
		t.Fatalf("released hang Wait = %v, want ErrAborted", werr)
	}
	if ran.Load() != 0 {
		t.Errorf("released hang executed %d items; must execute none", ran.Load())
	}
}

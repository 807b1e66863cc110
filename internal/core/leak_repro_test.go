package core

import (
	"context"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/obs"
)

// Repro: a coalesce leader cancelled while waiting at the admission
// gate leaks its flight; later same-kernel invocations park forever.
func TestCoalesceLeaderLeak(t *testing.T) {
	s, _ := newFaultyEAS(t, Options{Decision: DecisionPolicy{Coalesce: true}})
	k := compKernel()

	// Occupy the gate so the leader blocks in Acquire.
	tk, err := s.adm.Acquire(context.Background(), AdmitRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.ParallelForScoped(ctx, engine.Kernel(k), 200000, obs.Scope{})
		errc <- err
	}()
	waitUntil(t, "leader queued at gate", func() bool { return s.adm.Waiters() == 1 })
	cancel() // leader exits with ctx.Err(), flight never resolved
	if err := <-errc; err == nil {
		t.Fatal("expected leader error")
	}
	s.adm.Release(tk)

	// A later invocation of the same kernel should profile solo, but
	// joins the leaked flight as a follower and parks forever.
	done := make(chan struct{})
	go func() {
		_, err := s.ParallelFor(engine.Kernel(k), 200000)
		t.Log("second invocation returned", err)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("second invocation deadlocked on leaked flight")
	}
}

package core

import (
	"sync"

	"github.com/hetsched/eas/internal/wclass"
)

// This file is the decision coalescer: a singleflight over scheduling
// decisions, mirroring powerchar.Cache's in-flight deduplication one
// level down. The admission gate serializes the scheduling phase, so N
// concurrent tenants invoking the *same* kernel would pay N sequential
// profile + α-search decisions even though the result is identical —
// exactly the regime where partition-decision overhead dominates at
// small kernel sizes. With Options.Decision.Coalesce on, the first
// arrival becomes the flight's leader and decides as usual; everyone
// else parks on the flight *before* queueing at the admission gate
// (the leader holds the gate for its whole invocation, so waiting
// after Acquire would deadlock) and, once the leader publishes,
// executes its own full iteration count at the shared α without
// re-profiling.
//
// A leader that exits without a decision — engine error, GPU-busy
// fallback, quarantined profile, cancellation, or an injected
// leader-fail fault — aborts the flight and its followers fall back to
// solo decisions; they never re-join, so a persistently failing leader
// cannot livelock the population.

// Decision is the outcome of one scheduling decision, whatever its
// source — profile + α search, table replay, or a coalesced leader.
// Published to a flight, it is everything a follower needs to execute
// at the leader's α without re-running online profiling or the α
// search.
type Decision struct {
	// Alpha is the GPU offload ratio the leader chose.
	Alpha float64
	// Category is the workload class whose power curve won the search.
	Category wclass.Category
	// PredictedPower and PredictedTime are the model's estimates at
	// Alpha (diagnostics, mirrored into follower reports; zero when the
	// α was replayed rather than searched).
	PredictedPower, PredictedTime float64
}

// decisionFlight is one in-flight coalesced decision. The leader
// resolves it exactly once — publish or abort — and done is closed
// either way; followers read dec/ok only after done closes.
type decisionFlight struct {
	done chan struct{}
	once sync.Once
	dec  Decision
	ok   bool
}

// publish resolves the flight with the leader's decision. Calling it
// after the flight already resolved is a no-op.
func (f *decisionFlight) publish(dec Decision) {
	f.once.Do(func() {
		f.dec = dec
		f.ok = true
		close(f.done)
	})
}

// abort resolves the flight without a decision, waking followers into
// their solo fallback. It reports whether this call resolved the
// flight (false when a publish already had).
func (f *decisionFlight) abort() (fired bool) {
	f.once.Do(func() {
		fired = true
		close(f.done)
	})
	return fired
}

// result returns the published decision; ok is false for an aborted
// flight. Valid only after done is closed.
func (f *decisionFlight) result() (Decision, bool) {
	return f.dec, f.ok
}

// coalescer deduplicates in-flight scheduling decisions by kernel
// name. Safe for concurrent use.
type coalescer struct {
	mu      sync.Mutex
	flights map[string]*decisionFlight

	led      uint64 // invocations that became a flight's leader
	followed uint64 // invocations that joined an existing flight
	aborted  uint64 // flights resolved without a decision
}

func newCoalescer() *coalescer {
	return &coalescer{flights: map[string]*decisionFlight{}}
}

// join returns the kernel's current flight, creating one when none is
// in progress; leader is true for the creator. The flight stays in the
// map for the leader's whole invocation — even after publish — so a
// same-kernel arrival in the window between the published α and its
// accumulation into the table still shares the decision instead of
// profiling again; the leader removes it with finish when done.
func (c *coalescer) join(name string) (f *decisionFlight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[name]; ok {
		c.followed++
		return f, false
	}
	f = &decisionFlight{done: make(chan struct{})}
	c.flights[name] = f
	c.led++
	return f, true
}

// finish removes a flight the leader has fully retired (published or
// aborted, table updated). Idempotent; a newer flight under the same
// name is left alone.
func (c *coalescer) finish(name string, f *decisionFlight) {
	c.mu.Lock()
	if c.flights[name] == f {
		delete(c.flights, name)
	}
	c.mu.Unlock()
}

// recordAbort counts one flight resolved without a decision.
func (c *coalescer) recordAbort() {
	c.mu.Lock()
	c.aborted++
	c.mu.Unlock()
}

// stats snapshots the coalescer's counters (tests and gauges).
func (c *coalescer) stats() (led, followed, aborted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.led, c.followed, c.aborted
}

// invPlan carries one invocation's coalesced-decision role through the
// admission gate into the algorithm: the flight it leads (and must
// resolve exactly once), or the published decision it follows. The
// zero value is a plain solo invocation.
type invPlan struct {
	flight *decisionFlight
	forced *Decision
}

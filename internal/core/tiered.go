package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Class is an invocation's priority class at the admission gate.
// Lower values are more urgent.
type Class int

const (
	// ClassInteractive is latency-sensitive foreground work.
	ClassInteractive Class = iota
	// ClassBatch is throughput-oriented work that tolerates queueing.
	ClassBatch
	// ClassBackground is best-effort work admitted only when nothing
	// more urgent waits (subject to aging).
	ClassBackground
	// NumClasses is the number of priority classes.
	NumClasses = 3
)

// String returns the class's metrics/log label.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// clamp forces an arbitrary int-valued class into the valid range.
func (c Class) clamp() Class {
	if c < ClassInteractive {
		return ClassInteractive
	}
	if c >= NumClasses {
		return ClassBackground
	}
	return c
}

// AdmitRequest carries an invocation's admission attributes: who is
// asking, how urgent it is, and how much latency it can still afford.
// The zero value is an anonymous interactive request with no deadline.
type AdmitRequest struct {
	// Tenant identifies the caller for per-tenant quota accounting.
	// The empty string is a valid (shared) tenant.
	Tenant string
	// Class is the request's priority class.
	Class Class
	// DeadlineBudget is the admission latency the invocation can still
	// absorb and meet its deadline; 0 means no deadline. A request whose
	// budget is below the gate's estimated wait is shed immediately, and
	// a queued request whose budget expires before it is granted is shed
	// at grant time instead of wasting the slot.
	DeadlineBudget time.Duration
}

// admitKey carries an AdmitRequest through a context.
type admitKey struct{}

// WithRequest attaches admission attributes to a context; the
// scheduler reads them at the admission gate for class ordering, quota
// accounting and deadline checks.
func WithRequest(ctx context.Context, req AdmitRequest) context.Context {
	req.Class = req.Class.clamp()
	return context.WithValue(ctx, admitKey{}, req)
}

// RequestFromContext returns the admission attributes attached with
// WithRequest, or the zero request.
func RequestFromContext(ctx context.Context) AdmitRequest {
	req, _ := ctx.Value(admitKey{}).(AdmitRequest)
	return req
}

// Shed reasons reported in ErrOverloaded.Reason and as the metrics
// label eas_admission_shed_total{reason=...}.
const (
	// ShedTenantQuota: the tenant's token bucket was empty.
	ShedTenantQuota = "tenant-quota"
	// ShedQueueFull: the request's class queue was at capacity.
	ShedQueueFull = "queue-full"
	// ShedDeadline: the request could not meet its deadline budget —
	// either the estimated wait already exceeded it at arrival, or the
	// budget expired while the request was queued.
	ShedDeadline = "deadline"
)

// ErrOverloaded is the typed load-shedding rejection: the gate refused
// to queue the invocation and nothing was executed (the α table and the
// engine were never touched). RetryAfter is the gate's estimate of when
// a retry could succeed — the retry-after contract: it is advisory and
// best-effort, never a reservation.
type ErrOverloaded struct {
	// Tenant and Class echo the rejected request.
	Tenant string
	Class  Class
	// Reason is one of ShedTenantQuota, ShedQueueFull, ShedDeadline.
	Reason string
	// RetryAfter estimates how long until an identical request could be
	// admitted (token refill time for quota sheds, backlog drain
	// estimate otherwise). Zero means "no estimate", not "retry now".
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("core: overloaded (%s): tenant %q class %s shed, retry after %v",
		e.Reason, e.Tenant, e.Class, e.RetryAfter)
}

// ErrAdmissionRevoked reports that the watchdog force-released the
// caller's hold on the admission gate: the invocation stalled past the
// configured bound, its context was cancelled, and the gate was handed
// to the next waiter. The invocation must not touch the engine.
var ErrAdmissionRevoked = errors.New("core: admission revoked by watchdog")

// AdmissionOptions configures the gate's overload-resilience bounds.
// The zero value of every field leaves that bound off or picks the
// documented default.
type AdmissionOptions struct {
	// TenantRate is the default per-tenant admission quota in
	// admissions/second; 0 leaves tenants unlimited. Each tenant gets
	// its own token bucket at this rate (override per tenant with
	// SetTenantQuota).
	TenantRate float64
	// TenantBurst is the bucket depth — how many admissions a tenant
	// may burst above its sustained rate (default 1: strict pacing).
	TenantBurst float64
	// QueueDepth bounds each class's waiting queue; a request arriving
	// at a full queue is shed with ShedQueueFull. 0 is unbounded.
	QueueDepth int
	// AgingStep is the starvation-proofing rate: a waiter's effective
	// class improves by one level per AgingStep waited, so the worst
	// inversion a class-c waiter suffers is bounded by c*AgingStep.
	// Default 100ms.
	AgingStep time.Duration
	// Watchdog is the maximum time one invocation may hold the gate
	// before it is presumed wedged and force-released. 0 disables the
	// watchdog.
	Watchdog time.Duration
	// RetryAfterFloor is the minimum RetryAfter attached to backlog- and
	// estimate-based sheds. Before any hold completes the backlog
	// estimator reads zero, and a zero RetryAfter tells every shed
	// client to retry immediately — a thundering herd exactly when the
	// gate is saturated. Default 1ms; negative disables the floor.
	// Token-refill estimates (quota sheds) are exact and not floored.
	RetryAfterFloor time.Duration
}

// AdmissionStats is a snapshot of the gate's counters and queue
// gauges. Counters are cumulative since construction; queue depths are
// instantaneous (stale the moment they are read).
type AdmissionStats struct {
	// Admitted counts grants per class.
	Admitted [NumClasses]uint64
	// ShedQuota, ShedQueueFull and ShedDeadline count rejections by
	// reason.
	ShedQuota, ShedQueueFull, ShedDeadline uint64
	// AgingPromotions counts grants in which aging let a waiter beat a
	// nominally more urgent class that was still queued.
	AgingPromotions uint64
	// WatchdogStalls counts watchdog force-releases.
	WatchdogStalls uint64
	// LateReleases counts releases that arrived after the watchdog had
	// already revoked the ticket (the wedged holder eventually woke).
	LateReleases uint64
	// QueueDepth is the current number of waiters per class.
	QueueDepth [NumClasses]int
	// AvgHold is the smoothed gate hold time the controller uses for
	// wait estimates.
	AvgHold time.Duration
}

// Shed returns the total rejections across all reasons.
func (s AdmissionStats) Shed() uint64 {
	return s.ShedQuota + s.ShedQueueFull + s.ShedDeadline
}

// bucket is one tenant's token bucket. Guarded by Admission.mu.
type bucket struct {
	tokens      float64
	rate, burst float64
	last        time.Time
}

func (b *bucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

func (b *bucket) take(now time.Time) bool {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// timeToToken estimates when the bucket next holds a whole token.
func (b *bucket) timeToToken() time.Duration {
	if b.rate <= 0 {
		return 0
	}
	need := 1 - b.tokens
	if need <= 0 {
		return 0
	}
	return time.Duration(need / b.rate * float64(time.Second))
}

// tenantQuota is a per-tenant rate override.
type tenantQuota struct{ rate, burst float64 }

// waiter is one parked request in a class queue. The granting side
// fills ticket (or shed) under Admission.mu and then sends one token
// on grant. Records are recycled through the gate's free list: the
// Acquire that parked a record consumes its token (or leaves the queue
// without one) and returns it to the list under Admission.mu as its
// last touch, so a record is never handed to a new Acquire while the
// old one can still read it.
type waiter struct {
	grant  chan struct{} // capacity 1: one token per grant or shed
	ticket uint64
	shed   *ErrOverloaded
	class  Class
	tenant string
	enq    time.Time
	budget time.Duration
}

// holder tracks the invocation currently holding the gate.
type holder struct {
	ticket uint64
	start  time.Time
	tenant string
	// revoke is this grant's revocation signal (capacity 1; nil when
	// the watchdog is off): the watchdog sends one token on it when it
	// force-releases the holder. Signals are recycled once the holder's
	// Release arrives.
	revoke chan struct{}
}

// Admission is the scheduler's admission gate: it serializes whole
// invocations onto the single simulated engine/platform. The
// simulation advances one virtual clock, one PCU and one set of energy
// MSRs, so exactly one invocation may drive it at a time — which is
// also what makes each invocation's MSR deltas its own energy.
//
// The gate is a priority-classed FIFO. With no options it is a single
// class of unlimited, unbounded fair FIFO: every request defaults to
// ClassInteractive, waiters are granted strictly in arrival order, and
// a release hands the gate directly to the longest waiter (Go's
// sync.Mutex allows barging, which under contention can starve a
// tenant). Configure adds the overload-resilience bounds, each of which
// is off until set, because an open-loop population of tenants does
// not stop submitting when the node saturates:
//
//   - per-tenant token buckets shed a tenant's excess arrival rate at
//     the door with a typed ErrOverloaded carrying RetryAfter, instead
//     of letting one chatty tenant fill the queue;
//   - priority classes (interactive > batch > background) order the
//     queue by urgency, with starvation-proof aging: a waiter's
//     effective class improves by one level per AgingStep waited, so
//     background work is delayed by at most the aging bound, never
//     forever;
//   - bounded per-class queues convert unbounded queueing delay into
//     immediate, honest rejection;
//   - a deadline budget attached to the request is checked against the
//     gate's measured backlog, so an invocation that cannot possibly
//     meet its deadline is shed before it wastes a profiling slot;
//   - a watchdog force-releases the gate when a holder stalls past a
//     bound: the holder's revocation signal fires, the stall is
//     surfaced to the observer as a degradation instant, and the next
//     waiter is admitted, so one hung tenant cannot deadlock the node.
//
// Waiting is context-aware: a caller whose context is cancelled while
// queued leaves the queue and returns ctx.Err() without ever touching
// the engine.
//
// The zero value is ready to use.
type Admission struct {
	mu        sync.Mutex
	opts      AdmissionOptions
	queues    [NumClasses][]*waiter
	buckets   map[string]*bucket
	overrides map[string]tenantQuota
	ticketSeq uint64
	busy      bool   // a holder owns the gate; holder is valid
	holder    holder // meaningful only while busy
	// revoked maps each force-released ticket whose Release has not yet
	// arrived to its (signalled) revocation channel.
	revoked   map[uint64]chan struct{}
	avgHoldNs float64

	// Recycled per-wait state, so a contended wait allocates nothing
	// once the lists have grown to the peak concurrency: parked-waiter
	// records, revocation signals, and the one watchdog timer that
	// every grant re-arms (created on the first armed grant).
	freeWaiters []*waiter
	freeSignals []chan struct{}
	watchdog    *time.Timer

	admitted                               [NumClasses]uint64
	shedQuota, shedQueueFull, shedDeadline uint64
	agingPromotions                        uint64
	watchdogStalls                         uint64
	lateReleases                           uint64

	// onStall, when non-nil, is called (outside the lock) after every
	// watchdog force-release with the wedged holder's tenant and hold
	// duration — the hook New installs for the observer's degradation
	// instants. Set before the gate is in use.
	onStall func(tenant string, held time.Duration)
}

// Configure sets the gate's overload-resilience bounds. It must be
// called before the gate is in use (typically right after constructing
// the scheduler); calling it on a live gate panics.
func (a *Admission) Configure(opts AdmissionOptions) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.busy || a.waitersLocked() > 0 {
		panic("core: Admission.Configure on a gate in use")
	}
	a.opts = opts
}

// WatchdogEnabled reports whether a hold-time watchdog is armed.
func (a *Admission) WatchdogEnabled() bool {
	return a.opts.Watchdog > 0
}

// SetTenantQuota overrides the default token-bucket rate for one
// tenant (rate in admissions/second; burst is the bucket depth,
// defaulted like AdmissionOptions.TenantBurst). rate <= 0 exempts the
// tenant from quota enforcement entirely.
func (a *Admission) SetTenantQuota(tenant string, rate, burst float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if burst <= 0 {
		burst = 1
	}
	if a.overrides == nil {
		a.overrides = map[string]tenantQuota{}
	}
	a.overrides[tenant] = tenantQuota{rate: rate, burst: burst}
	delete(a.buckets, tenant) // rebuild at next arrival with the new rate
}

// bucketFor returns the tenant's token bucket, or nil when the tenant
// is unlimited. Caller holds a.mu.
func (a *Admission) bucketFor(tenant string, now time.Time) *bucket {
	rate, burst := a.opts.TenantRate, a.opts.TenantBurst
	if o, ok := a.overrides[tenant]; ok {
		rate, burst = o.rate, o.burst
	}
	if rate <= 0 {
		return nil
	}
	b := a.buckets[tenant]
	if b == nil {
		if burst <= 0 {
			burst = 1
		}
		b = &bucket{tokens: burst, rate: rate, burst: burst, last: now}
		if a.buckets == nil {
			a.buckets = map[string]*bucket{}
		}
		a.buckets[tenant] = b
	}
	return b
}

// waitersLocked counts queued waiters across every class. Caller holds
// a.mu.
func (a *Admission) waitersLocked() int {
	n := 0
	for c := range a.queues {
		n += len(a.queues[c])
	}
	return n
}

// estimatedWaitLocked is the gate's backlog estimate: the smoothed hold
// time times the number of invocations ahead (waiters plus the current
// holder). Zero until the first release seeds the estimator.
func (a *Admission) estimatedWaitLocked() time.Duration {
	if a.avgHoldNs <= 0 {
		return 0
	}
	ahead := a.waitersLocked()
	if a.busy {
		ahead++
	}
	return time.Duration(a.avgHoldNs * float64(ahead))
}

// recordHoldLocked folds one completed clean hold into the EWMA
// estimator.
func (a *Admission) recordHoldLocked(h time.Duration) {
	if h < 0 {
		return
	}
	if a.avgHoldNs == 0 {
		a.avgHoldNs = float64(h)
		return
	}
	const alpha = 0.2
	a.avgHoldNs = (1-alpha)*a.avgHoldNs + alpha*float64(h)
}

// recordRevokedHoldLocked folds a watchdog-revoked hold into the EWMA
// at half the clean-hold weight. A revoked hold's duration is bounded
// by the watchdog, not by the work it did, so a stall burst folded in
// at full weight would drag the backlog estimate toward the watchdog
// bound and keep overestimating waits long after the burst ends — but
// ignoring stalls entirely would leave the estimator blind to a gate
// that really is being held that long.
func (a *Admission) recordRevokedHoldLocked(h time.Duration) {
	if h < 0 {
		return
	}
	if a.avgHoldNs == 0 {
		a.avgHoldNs = float64(h)
		return
	}
	const alpha = 0.1 // half of recordHoldLocked's 0.2
	a.avgHoldNs = (1-alpha)*a.avgHoldNs + alpha*float64(h)
}

// floorRetry applies RetryAfterFloor to an estimate-based RetryAfter.
func (a *Admission) floorRetry(d time.Duration) time.Duration {
	f := a.opts.RetryAfterFloor
	if f == 0 {
		f = time.Millisecond
	}
	if f > 0 && d < f {
		return f
	}
	return d
}

// grantLocked installs a new holder and arms the watchdog: the
// gate's one timer is reset to the new holder's bound, and the holder
// takes a recycled revocation signal. Caller holds a.mu.
func (a *Admission) grantLocked(tenant string, now time.Time) uint64 {
	a.ticketSeq++
	tk := a.ticketSeq
	a.busy = true
	a.holder = holder{ticket: tk, start: now, tenant: tenant}
	if a.opts.Watchdog > 0 {
		if n := len(a.freeSignals); n > 0 {
			a.holder.revoke = a.freeSignals[n-1]
			a.freeSignals[n-1] = nil
			a.freeSignals = a.freeSignals[:n-1]
		} else {
			a.holder.revoke = make(chan struct{}, 1)
		}
		if a.watchdog == nil {
			a.watchdog = time.AfterFunc(a.opts.Watchdog, a.watchdogFire)
		} else {
			a.watchdog.Reset(a.opts.Watchdog)
		}
	}
	return tk
}

// newWaiterLocked takes a waiter record from the free list, or makes
// one. Caller holds a.mu.
func (a *Admission) newWaiterLocked() *waiter {
	if n := len(a.freeWaiters); n > 0 {
		w := a.freeWaiters[n-1]
		a.freeWaiters[n-1] = nil
		a.freeWaiters = a.freeWaiters[:n-1]
		return w
	}
	return &waiter{grant: make(chan struct{}, 1)}
}

// freeWaiterLocked returns a record whose Acquire is done with it: its
// grant token, if any, was consumed. Caller holds a.mu.
func (a *Admission) freeWaiterLocked(w *waiter) {
	*w = waiter{grant: w.grant}
	a.freeWaiters = append(a.freeWaiters, w)
}

// Revocation returns the ticket's revocation signal: it receives one
// token when the watchdog force-releases the holder. It is nil — never
// ready — when the watchdog is off or the ticket does not hold the
// gate, so a holder can select on it next to its own work.
func (a *Admission) Revocation(ticket uint64) <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.busy && a.holder.ticket == ticket {
		return a.holder.revoke
	}
	return a.revoked[ticket]
}

// Acquire admits the caller: quota, deadline-feasibility and
// queue-bound checks happen immediately (a rejection returns
// *ErrOverloaded and touches nothing else); otherwise the caller parks
// in its class queue until granted by effective priority (class minus
// aging credit, FIFO within a class) or its context is cancelled. A
// holder the watchdog force-releases learns it from the grant's
// Revocation signal.
//
// On success the caller owns the gate and must pass the returned
// ticket to Release.
func (a *Admission) Acquire(ctx context.Context, req AdmitRequest) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	req.Class = req.Class.clamp()
	now := time.Now()
	a.mu.Lock()

	// Per-tenant quota: shed excess arrival rate at the door, before
	// any queueing, so one chatty tenant cannot occupy queue slots.
	if b := a.bucketFor(req.Tenant, now); b != nil && !b.take(now) {
		a.shedQuota++
		retry := b.timeToToken()
		a.mu.Unlock()
		return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedTenantQuota, RetryAfter: retry}
	}

	// Deadline feasibility: if the backlog already exceeds the
	// caller's budget, admission would only waste a slot on an
	// invocation that misses its deadline anyway.
	if req.DeadlineBudget > 0 {
		if est := a.estimatedWaitLocked(); est > req.DeadlineBudget {
			a.shedDeadline++
			retry := a.floorRetry(est)
			a.mu.Unlock()
			return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedDeadline, RetryAfter: retry}
		}
	}

	if !a.busy {
		a.admitted[req.Class]++
		tk := a.grantLocked(req.Tenant, now)
		a.mu.Unlock()
		return tk, nil
	}

	// Bounded class queue: full means shed now rather than queue
	// forever. RetryAfter is the backlog-drain estimate.
	if a.opts.QueueDepth > 0 && len(a.queues[req.Class]) >= a.opts.QueueDepth {
		a.shedQueueFull++
		retry := a.floorRetry(a.estimatedWaitLocked())
		a.mu.Unlock()
		return 0, &ErrOverloaded{Tenant: req.Tenant, Class: req.Class, Reason: ShedQueueFull, RetryAfter: retry}
	}

	w := a.newWaiterLocked()
	w.class = req.Class
	w.tenant = req.Tenant
	w.enq = now
	w.budget = req.DeadlineBudget
	a.queues[req.Class] = append(a.queues[req.Class], w)
	a.mu.Unlock()

	select {
	case <-w.grant:
		a.mu.Lock()
		tk, shed := w.ticket, w.shed
		a.freeWaiterLocked(w)
		a.mu.Unlock()
		if shed != nil {
			return 0, shed
		}
		return tk, nil
	case <-ctx.Done():
		a.mu.Lock()
		// The grant token is sent under a.mu, so holding it makes the
		// race determinate: either we were already granted (or shed)
		// and must act on it, or we are still queued and can leave.
		var shed *ErrOverloaded
		select {
		case <-w.grant:
			if shed = w.shed; shed == nil {
				// Granted while cancelling: pass the gate straight on.
				// The ~0ns pass-on is not a real hold — recording it
				// would drag the EWMA toward zero and understate the
				// backlog.
				a.releaseLocked(w.ticket, false)
			}
		default:
			removeWaiter(&a.queues[w.class], w)
		}
		a.freeWaiterLocked(w)
		a.mu.Unlock()
		if shed != nil {
			return 0, shed
		}
		return 0, ctx.Err()
	}
}

// removeWaiter deletes w from a class queue, keeping the order and the
// backing array (so later appends reuse it).
func removeWaiter(q *[]*waiter, w *waiter) {
	s := *q
	for i, c := range s {
		if c == w {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*q = s[:len(s)-1]
			return
		}
	}
}

// Release releases a hold granted by Acquire. Releasing a ticket the
// watchdog already revoked is a recorded no-op (the wedged holder
// finally woke); releasing any other ticket that does not hold the
// gate panics.
func (a *Admission) Release(ticket uint64) {
	a.mu.Lock()
	a.releaseLocked(ticket, true)
	a.mu.Unlock()
}

// releaseLocked is Release under a.mu. record=false skips the EWMA
// update for releases that are not representative holds (a grant
// passed straight on by a cancelling waiter).
func (a *Admission) releaseLocked(ticket uint64, record bool) {
	if sig, ok := a.revoked[ticket]; ok {
		delete(a.revoked, ticket)
		a.lateReleases++
		select {
		case <-sig: // the holder did not consume its revocation token
		default:
		}
		a.freeSignals = append(a.freeSignals, sig)
		return
	}
	if !a.busy || a.holder.ticket != ticket {
		panic("core: Admission.Release without holding the gate")
	}
	if a.holder.revoke != nil {
		a.watchdog.Stop()
		a.freeSignals = append(a.freeSignals, a.holder.revoke)
	}
	if record {
		a.recordHoldLocked(time.Since(a.holder.start))
	}
	a.handoffLocked()
}

// handoffLocked grants the gate to the waiter with the best effective
// priority — nominal class minus one level per AgingStep waited, FIFO
// within a class — shedding queued waiters whose deadline budget
// expired while they waited. When no waiter remains the gate goes
// free. Caller holds a.mu and the outgoing holder is done with the
// gate.
func (a *Admission) handoffLocked() {
	a.busy = false
	a.holder = holder{}
	if a.waitersLocked() == 0 {
		return // nobody waits: skip the clock read on the uncontended path
	}
	now := time.Now()
	aging := float64(a.opts.AgingStep)
	if aging <= 0 {
		aging = float64(100 * time.Millisecond)
	}
	for {
		best := -1
		var bestEff float64
		var bestEnq time.Time
		for c := 0; c < NumClasses; c++ {
			q := a.queues[c]
			if len(q) == 0 {
				continue
			}
			// Within a class the head waited longest, so it strictly
			// dominates the rest of its queue; compare heads only.
			w := q[0]
			eff := float64(c) - float64(now.Sub(w.enq))/aging
			if best == -1 || eff < bestEff || (eff == bestEff && w.enq.Before(bestEnq)) {
				best, bestEff, bestEnq = c, eff, w.enq
			}
		}
		if best == -1 {
			return
		}
		w := a.queues[best][0]
		removeWaiter(&a.queues[best], w)

		if w.budget > 0 && now.Sub(w.enq) > w.budget {
			// The budget burned away in the queue: shed at grant time
			// instead of wasting the slot on a guaranteed deadline miss.
			a.shedDeadline++
			w.shed = &ErrOverloaded{Tenant: w.tenant, Class: w.class, Reason: ShedDeadline,
				RetryAfter: a.floorRetry(a.estimatedWaitLocked())}
			w.grant <- struct{}{}
			continue
		}
		if w.class > ClassInteractive {
			// Did aging let this waiter beat a nominally more urgent
			// class that is still queued?
			for c := ClassInteractive; c < w.class; c++ {
				if len(a.queues[c]) > 0 {
					a.agingPromotions++
					break
				}
			}
		}
		a.admitted[w.class]++
		w.ticket = a.grantLocked(w.tenant, now)
		w.grant <- struct{}{}
		return
	}
}

// watchdogFire is the gate's watchdog timer callback. Every grant
// resets the one timer, so a fire can be stale: armed for an earlier
// ticket whose holder has since released, racing the Reset for the
// current one. The callback therefore checks the current ticket's hold
// against the bound and does nothing unless that holder really has
// held the gate for the full Watchdog bound. A holder that has is
// presumed wedged: its revocation signal fires, the ticket is marked
// revoked (so its eventual Release is a recorded no-op), and the gate
// is handed to the next waiter so the node keeps serving.
//
// Force-release assumes a revoked holder stops driving the engine;
// the scheduler checks for revocation at its interruption points and
// returns ErrAdmissionRevoked. Size the Watchdog bound well above any
// legitimate hold time.
func (a *Admission) watchdogFire() {
	a.mu.Lock()
	if !a.busy {
		a.mu.Unlock()
		return
	}
	held := time.Since(a.holder.start)
	if held < a.opts.Watchdog {
		// Stale. The holder's grant read its start time before it reset
		// the timer, so the fire armed by that Reset always finds the
		// bound passed; this one was armed for an earlier ticket.
		a.mu.Unlock()
		return
	}
	ticket := a.holder.ticket
	tenant := a.holder.tenant
	onStall := a.onStall
	a.watchdogStalls++
	if a.revoked == nil {
		a.revoked = map[uint64]chan struct{}{}
	}
	a.revoked[ticket] = a.holder.revoke
	// Signal before handing the gate on, so a holder parked on its
	// revocation wakes, observes it, and stands down.
	a.holder.revoke <- struct{}{}
	a.recordRevokedHoldLocked(held)
	a.handoffLocked()
	a.mu.Unlock()
	if onStall != nil {
		onStall(tenant, held)
	}
}

// Revoked reports whether the watchdog force-released the ticket. The
// scheduler consults it at interruption points before touching the
// engine again.
func (a *Admission) Revoked(ticket uint64) bool {
	if !a.WatchdogEnabled() {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.revoked[ticket]
	return ok
}

// Waiters returns the number of callers currently queued across every
// class (diagnostic; the value is stale the moment it is read).
func (a *Admission) Waiters() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waitersLocked()
}

// Stats snapshots the gate's counters and gauges.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	stats := AdmissionStats{
		Admitted:        a.admitted,
		ShedQuota:       a.shedQuota,
		ShedQueueFull:   a.shedQueueFull,
		ShedDeadline:    a.shedDeadline,
		AgingPromotions: a.agingPromotions,
		WatchdogStalls:  a.watchdogStalls,
		LateReleases:    a.lateReleases,
		AvgHold:         time.Duration(a.avgHoldNs),
	}
	for c := range a.queues {
		stats.QueueDepth[c] = len(a.queues[c])
	}
	return stats
}

package eas

import (
	"context"
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/core"
)

// This file is the public surface of the admission gate
// (internal/core/tiered.go): multi-tenant quotas, priority classes,
// deadline budgets, load shedding, and the runtime watchdog. Classes
// always apply; every bound is opt-in via Config.Admission — with the
// zero policy the gate is a single-class, unlimited, unbounded fair
// FIFO.

// Class is an invocation's priority class at the admission gate; lower
// is more urgent. Attach it per invocation with WithClass.
type Class int

// Priority classes, most to least urgent.
const (
	// ClassInteractive is latency-sensitive foreground work (the
	// default for requests that never call WithClass).
	ClassInteractive Class = Class(core.ClassInteractive)
	// ClassBatch is throughput-oriented work that tolerates queueing.
	ClassBatch Class = Class(core.ClassBatch)
	// ClassBackground is best-effort work admitted when nothing more
	// urgent waits (aging still guarantees it is never starved forever).
	ClassBackground Class = Class(core.ClassBackground)
)

// String returns the class's metrics label ("interactive", "batch",
// "background").
func (c Class) String() string { return core.Class(c).String() }

// TenantQuota is one tenant's admission-rate override.
type TenantQuota struct {
	// Rate is the sustained admission quota in invocations/second;
	// <= 0 exempts the tenant from quota enforcement.
	Rate float64
	// Burst is the token-bucket depth — how many invocations the tenant
	// may burst above the sustained rate (default 1).
	Burst float64
}

// AdmissionPolicy configures the admission gate's bounds. The gate
// always orders waiters by priority class with starvation-proof aging
// (FIFO within a class); the policy adds per-tenant token-bucket
// quotas, bounded class queues with load shedding, and a hold-time
// watchdog. The zero value sets no bound: a request that carries no
// class or deadline budget queues in plain arrival order.
type AdmissionPolicy struct {
	// Enabled has no effect.
	//
	// Deprecated: the tiered gate is always on.
	Enabled bool
	// TenantRate and TenantBurst are the default per-tenant quota
	// (invocations/second and bucket depth); Rate 0 leaves tenants
	// unlimited. Override per tenant with TenantQuotas or
	// Runtime.SetTenantQuota.
	TenantRate  float64
	TenantBurst float64
	// QueueDepth bounds each class's waiting queue; arrivals beyond it
	// are shed with ErrOverloaded instead of queueing forever. 0 is
	// unbounded.
	QueueDepth int
	// AgingStep is the starvation-proofing rate: a waiter's effective
	// priority improves by one class per AgingStep waited (default
	// 100ms), bounding how long background work can be overtaken.
	AgingStep time.Duration
	// Watchdog force-releases the admission gate when one invocation
	// holds it longer than this bound: the holder's context is
	// cancelled, the stall is recorded as a degradation instant, and
	// the next waiter is admitted. 0 disables the watchdog.
	Watchdog time.Duration
	// RetryAfterFloor is the minimum RetryAfter attached to
	// backlog-estimate sheds. Before any hold completes the estimator
	// reads zero, and a zero RetryAfter invites every shed client to
	// retry immediately — a thundering herd at the worst moment.
	// Default 1ms; negative disables the floor. Exact token-refill estimates (quota sheds) are not
	// floored.
	RetryAfterFloor time.Duration
	// TenantQuotas overrides the default quota per tenant name.
	TenantQuotas map[string]TenantQuota
}

// WithTenant attaches a tenant identity to a context for per-tenant
// quota accounting at the admission gate. The empty string (and any
// context never passed through WithTenant) is the shared anonymous
// tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	req := core.RequestFromContext(ctx)
	req.Tenant = tenant
	return core.WithRequest(ctx, req)
}

// WithClass attaches a priority class to a context; invocations
// default to ClassInteractive.
func WithClass(ctx context.Context, c Class) context.Context {
	req := core.RequestFromContext(ctx)
	req.Class = core.Class(c)
	return core.WithRequest(ctx, req)
}

// WithDeadlineBudget attaches the admission-latency budget the
// invocation can absorb and still meet its deadline. When the gate's
// estimated wait exceeds the budget the invocation is shed immediately
// with ErrOverloaded (reason "deadline") instead of wasting a slot on
// a guaranteed miss; a queued invocation whose budget expires before
// it is granted is shed at grant time. 0 (the default) means no
// deadline.
func WithDeadlineBudget(ctx context.Context, d time.Duration) context.Context {
	req := core.RequestFromContext(ctx)
	req.DeadlineBudget = d
	return core.WithRequest(ctx, req)
}

// ErrOverloaded is the typed load-shedding rejection from the
// admission gate: the invocation was refused before touching the
// engine or the α table. Check with errors.As:
//
//	var ov *eas.ErrOverloaded
//	if errors.As(err, &ov) {
//		time.Sleep(ov.RetryAfter)
//		// retry
//	}
type ErrOverloaded struct {
	// Tenant and Class echo the rejected request.
	Tenant string
	Class  Class
	// Reason is "tenant-quota" (token bucket empty), "queue-full"
	// (class queue at capacity) or "deadline" (the invocation could not
	// meet its deadline budget).
	Reason string
	// RetryAfter is the gate's best-effort estimate of when an
	// identical request could be admitted. It is advisory — a hint, not
	// a reservation; zero means "no estimate".
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("eas: overloaded (%s): tenant %q class %s shed, retry after %v",
		e.Reason, e.Tenant, e.Class, e.RetryAfter)
}

// ErrAdmissionRevoked reports that the runtime watchdog force-released
// an invocation that held the admission gate past the configured
// bound; the invocation's result was discarded because another tenant
// may have driven the engine after the revocation.
var ErrAdmissionRevoked = core.ErrAdmissionRevoked

// AdmissionStats is a point-in-time snapshot of admission-gate
// pressure. Counters are cumulative since runtime construction; queue
// depths are instantaneous.
type AdmissionStats struct {
	// Waiters is the total number of queued invocations.
	Waiters int
	// Admitted counts grants per class (index by Class).
	Admitted [core.NumClasses]uint64
	// ShedQuota, ShedQueueFull and ShedDeadline count load-shedding
	// rejections by reason.
	ShedQuota, ShedQueueFull, ShedDeadline uint64
	// AgingPromotions counts grants in which aging let a lower-priority
	// waiter overtake a still-queued higher class.
	AgingPromotions uint64
	// WatchdogStalls counts watchdog force-releases; LateReleases
	// counts wedged holders that eventually woke after revocation.
	WatchdogStalls, LateReleases uint64
	// QueueDepth is the current number of waiters per class.
	QueueDepth [core.NumClasses]int
	// AvgHold is the smoothed gate hold time behind RetryAfter
	// estimates.
	AvgHold time.Duration
}

// Shed returns total rejections across all reasons.
func (s AdmissionStats) Shed() uint64 {
	return s.ShedQuota + s.ShedQueueFull + s.ShedDeadline
}

// AdmissionStats snapshots the runtime's admission-gate pressure.
func (r *Runtime) AdmissionStats() AdmissionStats {
	adm := r.sched.Admission()
	st := adm.Stats()
	return AdmissionStats{
		Waiters:         adm.Waiters(),
		Admitted:        st.Admitted,
		ShedQuota:       st.ShedQuota,
		ShedQueueFull:   st.ShedQueueFull,
		ShedDeadline:    st.ShedDeadline,
		AgingPromotions: st.AgingPromotions,
		WatchdogStalls:  st.WatchdogStalls,
		LateReleases:    st.LateReleases,
		QueueDepth:      st.QueueDepth,
		AvgHold:         st.AvgHold,
	}
}

// SetTenantQuota overrides one tenant's admission quota at runtime;
// it applies from the tenant's next arrival.
func (r *Runtime) SetTenantQuota(tenant string, q TenantQuota) {
	r.sched.SetTenantQuota(tenant, q.Rate, q.Burst)
}

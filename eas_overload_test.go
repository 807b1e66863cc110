package eas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// overloadRuntime builds a runtime with the tiered admission policy and
// an optional fault plan.
func overloadRuntime(t *testing.T, policy AdmissionPolicy, plan *FaultPlan, obsv *Observer) *Runtime {
	t.Helper()
	rt, err := NewRuntime(DesktopPlatform(), Config{
		Metric:    EDP,
		Model:     sharedModel(t),
		Admission: policy,
		Faults:    plan,
		Observer:  obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// The full shedding path through the public API: a tenant over its
// quota gets a typed *ErrOverloaded via errors.As with the reason and a
// populated RetryAfter, and AdmissionStats reflects the rejection.
func TestOverloadQuotaShedsPublic(t *testing.T) {
	rt := overloadRuntime(t, AdmissionPolicy{
		TenantQuotas: map[string]TenantQuota{
			"acme": {Rate: 0.0001, Burst: 1},
		},
	}, nil, nil)
	defer rt.Close()

	k := computeKernel("quota-kernel", func(int) {})
	ctx := WithTenant(context.Background(), "acme")
	if _, err := rt.ParallelForCtx(ctx, k, 120000); err != nil {
		t.Fatalf("first invocation within burst: %v", err)
	}
	_, err := rt.ParallelForCtx(ctx, k, 120000)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("second invocation = %v, want *eas.ErrOverloaded", err)
	}
	if ov.Reason != "tenant-quota" || ov.Tenant != "acme" {
		t.Errorf("shed = %+v, want tenant-quota for acme", ov)
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want a positive refill estimate", ov.RetryAfter)
	}

	// Quotas are per tenant: an unnamed tenant sails through.
	if _, err := rt.ParallelFor(k, 120000); err != nil {
		t.Fatalf("anonymous tenant was shed: %v", err)
	}

	st := rt.AdmissionStats()
	if st.ShedQuota != 1 || st.Shed() != 1 {
		t.Errorf("ShedQuota = %d Shed() = %d, want 1/1", st.ShedQuota, st.Shed())
	}
	if st.Admitted[ClassInteractive] != 2 {
		t.Errorf("Admitted[interactive] = %d, want 2", st.Admitted[ClassInteractive])
	}
	if st.AvgHold <= 0 {
		t.Error("AvgHold not seeded after completed invocations")
	}
}

// SetTenantQuota applies at runtime and WithClass labels admissions per
// class in the stats.
func TestOverloadRuntimeQuotaAndClasses(t *testing.T) {
	rt := overloadRuntime(t, AdmissionPolicy{}, nil, nil)
	defer rt.Close()
	k := computeKernel("classy-kernel", func(int) {})

	ctx := WithClass(WithTenant(context.Background(), "bg-tenant"), ClassBackground)
	if _, err := rt.ParallelForCtx(ctx, k, 120000); err != nil {
		t.Fatal(err)
	}
	if st := rt.AdmissionStats(); st.Admitted[ClassBackground] != 1 {
		t.Errorf("Admitted[background] = %d, want 1", st.Admitted[ClassBackground])
	}

	rt.SetTenantQuota("bg-tenant", TenantQuota{Rate: 0.0001, Burst: 1})
	if _, err := rt.ParallelForCtx(ctx, k, 120000); err != nil {
		t.Fatalf("first post-override invocation within burst: %v", err)
	}
	var ov *ErrOverloaded
	if _, err := rt.ParallelForCtx(ctx, k, 120000); !errors.As(err, &ov) {
		t.Fatalf("runtime quota override not enforced: %v", err)
	} else if ov.Class != ClassBackground {
		t.Errorf("shed class = %v, want background", ov.Class)
	}
}

// An infeasible deadline budget sheds at admission instead of queueing
// into a guaranteed miss. The public gate only covers the core planning
// step (it releases before functional execution), so the slow tenant is
// wedged with the admission-hold fault rather than a blocking body.
func TestOverloadDeadlineBudgetPublic(t *testing.T) {
	plan := NewFaultPlan(3)
	rt := overloadRuntime(t, AdmissionPolicy{}, plan, nil)
	defer rt.Close()
	k := computeKernel("deadline-kernel", func(int) {})
	// Seed the hold estimator with a real invocation.
	if _, err := rt.ParallelFor(k, 120000); err != nil {
		t.Fatal(err)
	}

	// Wedge the gate for a while (no watchdog), then arrive with a
	// budget far below the estimated wait.
	plan.HoldAdmission(400*time.Millisecond, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := rt.ParallelForCtx(WithTenant(context.Background(), "slow"), k, 120000); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.AdmissionStats().Admitted[ClassInteractive] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slow tenant never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	var ov *ErrOverloaded
	ctx := WithDeadlineBudget(context.Background(), time.Nanosecond)
	if _, err := rt.ParallelForCtx(ctx, k, 120000); !errors.As(err, &ov) || ov.Reason != "deadline" {
		t.Errorf("budgeted arrival behind a busy gate = %v, want deadline shed", err)
	}
	wg.Wait()
	if st := rt.AdmissionStats(); st.ShedDeadline != 1 {
		t.Errorf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// The watchdog acceptance scenario end-to-end through the public API
// with observability attached: a fault-injected hung tenant is
// force-released (ErrAdmissionRevoked), other tenants keep completing,
// the stall is visible in AdmissionStats, on /metrics, and as a
// watchdog-stall instant in the Perfetto trace.
func TestOverloadWatchdogPublic(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	plan := NewFaultPlan(7)
	plan.HoldAdmission(10*time.Second, 1)
	rt := overloadRuntime(t, AdmissionPolicy{
		Watchdog: 40 * time.Millisecond,
	}, plan, observer)
	defer rt.Close()
	k := computeKernel("watchdog-kernel", func(int) {})

	hungErr := make(chan error, 1)
	go func() {
		_, err := rt.ParallelForCtx(WithTenant(context.Background(), "wedged"), k, 120000)
		hungErr <- err
	}()
	// Wait for the wedged tenant to own the gate.
	deadline := time.Now().Add(5 * time.Second)
	for rt.AdmissionStats().Admitted[ClassInteractive] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged tenant never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A healthy tenant must get through despite the wedge.
	done := make(chan error, 1)
	go func() {
		_, err := rt.ParallelForCtx(WithTenant(context.Background(), "healthy"), k, 120000)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy tenant failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy tenant deadlocked behind the wedged one")
	}
	select {
	case err := <-hungErr:
		if !errors.Is(err, ErrAdmissionRevoked) {
			t.Fatalf("wedged tenant returned %v, want ErrAdmissionRevoked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged tenant never returned")
	}

	st := rt.AdmissionStats()
	if st.WatchdogStalls != 1 {
		t.Errorf("WatchdogStalls = %d, want 1", st.WatchdogStalls)
	}
	if fs := plan.Stats(); fs.AdmissionHolds != 1 {
		t.Errorf("FaultStats.AdmissionHolds = %d, want 1", fs.AdmissionHolds)
	}

	// --- observability ---
	var metricsBuf bytes.Buffer
	if err := observer.WriteMetrics(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	body := metricsBuf.String()
	for _, name := range []string{
		"eas_watchdog_stalls_total 1",
		`eas_admission_admitted_total{class="interactive"}`,
		`eas_admission_queue_depth{class="background"}`,
		`eas_admission_shed_total{reason="tenant-quota"}`,
		"eas_admission_waiters",
		"eas_admission_aging_promotions_total",
		"eas_admission_late_releases_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	var traceBuf bytes.Buffer
	if err := observer.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var dump chromeDump
	if err := json.Unmarshal(traceBuf.Bytes(), &dump); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	stalls := 0
	for _, ev := range dump.TraceEvents {
		if ev.Name == "watchdog-stall" {
			stalls++
			if tenant, _ := ev.Args["tenant"].(string); tenant != "wedged" {
				t.Errorf("watchdog-stall instant carries tenant %v, want wedged", ev.Args["tenant"])
			}
		}
	}
	if stalls != 1 {
		t.Errorf("trace has %d watchdog-stall instants, want 1", stalls)
	}
}

// The `hold=` fault grammar parses and delivers through the scripted
// public plan.
func TestOverloadHoldFaultGrammar(t *testing.T) {
	plan, err := ParseFaultPlan("hold=80x1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := overloadRuntime(t, AdmissionPolicy{
		Watchdog: 25 * time.Millisecond,
	}, plan, nil)
	defer rt.Close()
	k := computeKernel("grammar-kernel", func(int) {})
	_, err = rt.ParallelFor(k, 120000)
	if !errors.Is(err, ErrAdmissionRevoked) {
		t.Fatalf("held invocation = %v, want ErrAdmissionRevoked", err)
	}
	if fs := plan.Stats(); fs.AdmissionHolds != 1 {
		t.Errorf("AdmissionHolds = %d, want 1", fs.AdmissionHolds)
	}
}

// With the zero policy the public runtime's gate is a single-class
// FIFO: every unclassed invocation is admitted as interactive, and
// nothing is ever shed.
func TestOverloadDisabledStats(t *testing.T) {
	rt := newRuntime(t, EDP)
	defer rt.Close()
	if _, err := rt.ParallelFor(computeKernel("plain", func(int) {}), 120000); err != nil {
		t.Fatal(err)
	}
	st := rt.AdmissionStats()
	if st.Admitted != [3]uint64{1, 0, 0} {
		t.Errorf("Admitted = %v, want one interactive grant", st.Admitted)
	}
	if st.Shed() != 0 || st.Waiters != 0 {
		t.Errorf("zero-policy gate reports shed=%d waiters=%d", st.Shed(), st.Waiters)
	}
}

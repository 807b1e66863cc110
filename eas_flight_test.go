package eas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The incident-capture acceptance scenario end-to-end through the
// public API: a flight-armed observer watches a runtime whose admission
// gate is wedged by the hold= fault verb. The watchdog force-release
// must freeze the ring into exactly one debounced incident dump on
// disk, the artifact must carry the stall event, and the per-tenant
// attribution families must land on /metrics and /debug/tenants.
func TestFlightRecorderWatchdogIncident(t *testing.T) {
	dir := t.TempDir()
	observer := NewObserver(ObserverOptions{
		Flight: FlightPolicy{Dir: dir, Debounce: time.Hour},
	})
	plan := NewFaultPlan(7)
	rt := overloadRuntime(t, AdmissionPolicy{
		Watchdog: 40 * time.Millisecond,
	}, plan, observer)
	defer rt.Close()
	k := computeKernel("flight-kernel", func(int) {})

	// A healthy tenant completes first so the ring holds real decision
	// events when the incident freezes it.
	if _, err := rt.ParallelForCtx(WithTenant(context.Background(), "healthy"), k, 120000); err != nil {
		t.Fatal(err)
	}

	// Wedge the next admitted invocation via the hold= fault verb —
	// scripting a live plan schedules faults for upcoming invocations.
	if err := plan.Script("hold=10000x1"); err != nil {
		t.Fatal(err)
	}
	hungErr := make(chan error, 1)
	go func() {
		_, err := rt.ParallelForCtx(WithTenant(context.Background(), "wedged"), k, 120000)
		hungErr <- err
	}()
	select {
	case err := <-hungErr:
		if !errors.Is(err, ErrAdmissionRevoked) {
			t.Fatalf("wedged tenant returned %v, want ErrAdmissionRevoked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged tenant never returned")
	}

	// Exactly one debounced dump file: the watchdog stall triggered it,
	// and the hour-long debounce swallows anything after. The watchdog
	// cancels the wedged holder before its stall hook triggers the dump,
	// so the tenant can return first; the dump counts only once its
	// file is in place, so wait for the count before looking on disk.
	deadline := time.Now().Add(10 * time.Second)
	for observer.FlightDumps() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("FlightDumps() = %d, want 1", observer.FlightDumps())
		}
		time.Sleep(time.Millisecond)
	}
	names, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("incident files = %v (err %v), want exactly one", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Trigger string `json:"trigger"`
		Dump    uint64 `json:"dump"`
		Events  []struct {
			Kind   string `json:"kind"`
			Tenant string `json:"tenant"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("incident artifact is not valid JSON: %v", err)
	}
	if dump.Trigger != "watchdog-stall" || dump.Dump != 1 {
		t.Fatalf("artifact = %s/#%d, want watchdog-stall/#1", dump.Trigger, dump.Dump)
	}
	var stall, decision bool
	for _, ev := range dump.Events {
		switch ev.Kind {
		case "watchdog-stall":
			stall = true
			if ev.Tenant != "wedged" {
				t.Errorf("stall event tenant = %q, want wedged", ev.Tenant)
			}
		case "decision":
			decision = true
		}
	}
	if !stall || !decision {
		t.Errorf("artifact events missing stall=%v decision=%v:\n%s", stall, decision, data)
	}

	// Per-tenant attribution on /metrics, including the dump counter.
	var buf bytes.Buffer
	if err := observer.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`eas_tenant_invocations_total{tenant="healthy",class="interactive"} 1`,
		`eas_tenant_invocation_seconds_count{tenant="healthy"} 1`,
		`eas_flight_dumps_total{trigger="watchdog-stall"} 1`,
		`eas_tenant_energy_joules_total{tenant="healthy",domain="cpu"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// /debug/flight serves the same frozen artifact; /debug/tenants the
	// accounting snapshot.
	h := observer.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), data) {
		t.Errorf("/debug/flight status %d, body matches file: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), data))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/tenants", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tenant": "healthy"`) {
		t.Errorf("/debug/tenants status %d body:\n%s", rec.Code, rec.Body.String())
	}
}

// Sheds attribute to their tenant: a quota-shed tenant shows up in the
// eas_tenant_shed_total family and the flight ring.
func TestFlightShedAttribution(t *testing.T) {
	observer := NewObserver(ObserverOptions{Flight: FlightPolicy{Enable: true}})
	rt := overloadRuntime(t, AdmissionPolicy{
		TenantQuotas: map[string]TenantQuota{
			"acme": {Rate: 0.0001, Burst: 1},
		},
	}, nil, observer)
	defer rt.Close()

	k := computeKernel("shed-kernel", func(int) {})
	ctx := WithTenant(context.Background(), "acme")
	if _, err := rt.ParallelForCtx(ctx, k, 120000); err != nil {
		t.Fatal(err)
	}
	var ov *ErrOverloaded
	if _, err := rt.ParallelForCtx(ctx, k, 120000); !errors.As(err, &ov) {
		t.Fatalf("second invocation = %v, want *eas.ErrOverloaded", err)
	}

	var buf bytes.Buffer
	if err := observer.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := `eas_tenant_shed_total{tenant="acme",reason="tenant-quota"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("/metrics missing %s", want)
	}

	// The shed landed in the flight ring too.
	h := observer.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if !strings.Contains(rec.Body.String(), `"kind": "shed"`) {
		t.Errorf("flight ring missing shed event:\n%s", rec.Body.String())
	}
}

// TestFlightDumpsEveryRecordKind drives one flight-armed runtime
// through every kind of event an incident dump holds — a decision, a
// fallback's degradation, a quota shed, a breaker transition, a WAL
// error and a watchdog stall — and reads them back, in the order they
// happened, from the recorder's snapshot of the observer's one ring.
// The breaker and WAL-error records are also instants on the trace's
// track 0.
func TestFlightDumpsEveryRecordKind(t *testing.T) {
	observer := NewObserver(ObserverOptions{Flight: FlightPolicy{Enable: true}})
	plan := NewFaultPlan(13)
	rt := robustRuntime(t, plan, Config{
		Observer:          observer,
		BreakerThreshold:  2,
		BreakerProbeAfter: 1,
		GPURetry:          RetryPolicy{MaxAttempts: 1},
		State:             StatePolicy{Path: filepath.Join(t.TempDir(), "alpha.state")},
		Admission: AdmissionPolicy{
			TenantQuotas: map[string]TenantQuota{"acme": {Rate: 0.0001, Burst: 1}},
			Watchdog:     40 * time.Millisecond,
		},
	})
	defer rt.Close()
	k := computeKernel("every-kind", func(int) {})
	acme := WithTenant(context.Background(), "acme")
	run := func(ctx context.Context) (Report, error) {
		rep, err := rt.ParallelForCtx(ctx, k, 200000)
		if err != nil {
			return Report{}, err
		}
		defer rt.ReleaseReport(rep)
		return *rep, nil
	}

	// A decision, then a busy GPU's fallback: the breaker's first.
	if _, err := run(acme); err != nil {
		t.Fatal(err)
	}
	plan.GPUBusyFor(1)
	if rep, err := run(context.Background()); err != nil || rep.FallbackReason != FallbackGPUBusy {
		t.Fatalf("busy invocation: %v, fallback %q; want a gpu-busy fallback", err, rep.FallbackReason)
	}
	// acme's quota is spent: a shed.
	var ov *ErrOverloaded
	if _, err := run(acme); !errors.As(err, &ov) {
		t.Fatalf("over-quota invocation returned %v, want *ErrOverloaded", err)
	}
	// The second fallback in a row opens the breaker.
	plan.GPUBusyFor(1)
	if rep, err := run(context.Background()); err != nil || rep.BreakerState != "open" {
		t.Fatalf("second busy invocation: %v, breaker %q; want it open", err, rep.BreakerState)
	}
	// The next invocation probes the breaker and closes it; its table
	// update fails to reach the WAL.
	plan.FailWALWrites(1)
	if _, err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A held gate the watchdog takes back: a stall.
	plan.HoldAdmission(time.Hour, 1)
	if _, err := run(context.Background()); !errors.Is(err, ErrAdmissionRevoked) {
		t.Fatalf("held invocation returned %v, want ErrAdmissionRevoked", err)
	}

	// The stall record lands after the gate is handed on, so the held
	// invocation can return first.
	var dump struct {
		Events []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	await(t, "the watchdog-stall record", func() bool {
		data, err := observer.inner.Flight().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatal(err)
		}
		return len(dump.Events) > 0 && dump.Events[len(dump.Events)-1].Kind == "watchdog-stall"
	})
	var kinds []string
	seen := map[string]bool{}
	for i, ev := range dump.Events {
		if i > 0 && ev.Seq < dump.Events[i-1].Seq {
			t.Errorf("event %d seq %d after %d: not in ring order", i, ev.Seq, dump.Events[i-1].Seq)
		}
		if !seen[ev.Kind] {
			seen[ev.Kind] = true
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"decision", "degradation", "shed", "breaker", "wal-error", "watchdog-stall"}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("event kinds in ring order (first of each) %v, want %v", kinds, want)
	}

	instants := map[string]int{}
	for _, ev := range observerTrace(t, observer) {
		if ev.TID == 0 && ev.Phase == "i" {
			instants[ev.Name]++
		}
	}
	// open, half-open, closed.
	if instants["breaker"] != 3 || instants["wal-error"] != 1 || instants["watchdog-stall"] != 1 {
		t.Errorf("track 0 instants %v, want 3 breaker, 1 wal-error, 1 watchdog-stall", instants)
	}
}

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

package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func httpGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHTTPTenantsEndpoint(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	o.Finish(&Invocation{Tenant: "tenant-a", Class: "batch", Start: time.Now(), GPUEnergyJ: 2.5})
	o.RecordShed("tenant-a", "batch", "queue-full")

	h := NewHTTPHandlerOpts(HTTPOptions{Registry: reg, Observer: o})
	rec := httpGet(t, h, "/debug/tenants")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var accounts []TenantAccount
	if err := json.Unmarshal(rec.Body.Bytes(), &accounts); err != nil {
		t.Fatal(err)
	}
	if len(accounts) != 1 || accounts[0].Tenant != "tenant-a" {
		t.Fatalf("accounts = %+v, want one tenant-a", accounts)
	}
	a := accounts[0]
	if a.Invocations["batch"] != 1 || a.Shed["queue-full"] != 1 || a.EnergyJ["gpu"] != 2.5 {
		t.Fatalf("account content wrong: %+v", a)
	}

	// Without an observer the endpoint 404s.
	if rec := httpGet(t, NewHTTPHandler(reg, nil), "/debug/tenants"); rec.Code != http.StatusNotFound {
		t.Fatalf("tenants without observer: status %d, want 404", rec.Code)
	}
}

func TestHTTPFlightEndpoint(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	h := NewHTTPHandlerOpts(HTTPOptions{Registry: reg, Observer: o})

	// No recorder attached: 404.
	if rec := httpGet(t, h, "/debug/flight"); rec.Code != http.StatusNotFound {
		t.Fatalf("flight without recorder: status %d, want 404", rec.Code)
	}

	flight := o.AttachFlight(FlightPolicy{Events: 8})
	h = NewHTTPHandlerOpts(HTTPOptions{Registry: reg, Observer: o})

	// Recorder armed but no incident yet: a live "manual" snapshot.
	rec := httpGet(t, h, "/debug/flight")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var dump FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != TriggerManual {
		t.Fatalf("pre-incident trigger = %q, want manual", dump.Trigger)
	}

	// After an incident the endpoint serves the frozen artifact.
	flight.RecordWatchdogStall("tenant-a", 100*time.Millisecond)
	rec = httpGet(t, h, "/debug/flight")
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != TriggerWatchdogStall || dump.Dump != 1 {
		t.Fatalf("post-incident dump = %q/#%d, want watchdog-stall/#1", dump.Trigger, dump.Dump)
	}
}

func TestHTTPPprofGating(t *testing.T) {
	reg := NewRegistry()
	off := NewHTTPHandlerOpts(HTTPOptions{Registry: reg})
	if rec := httpGet(t, off, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", rec.Code)
	}
	if body := httpGet(t, off, "/").Body.String(); strings.Contains(body, "pprof") {
		t.Fatalf("index links pprof without opt-in:\n%s", body)
	}

	on := NewHTTPHandlerOpts(HTTPOptions{Registry: reg, EnablePprof: true})
	if rec := httpGet(t, on, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof with opt-in: status %d, want 200", rec.Code)
	}
	if body := httpGet(t, on, "/").Body.String(); !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index does not link pprof with opt-in:\n%s", body)
	}
}

func TestHTTPIndexLinks(t *testing.T) {
	reg := NewRegistry()
	o := New(nil, reg)
	o.AttachFlight(FlightPolicy{Events: 8})
	h := NewHTTPHandlerOpts(HTTPOptions{Registry: reg, Observer: o})
	body := httpGet(t, h, "/").Body.String()
	for _, want := range []string{"/metrics", "/debug/trace", "/debug/tenants", "/debug/flight"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing link %q:\n%s", want, body)
		}
	}
}

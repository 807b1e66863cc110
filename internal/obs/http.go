package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// HTTPOptions selects what NewHTTPHandlerOpts mounts. Nil fields 404
// their endpoints.
type HTTPOptions struct {
	// Registry serves /metrics.
	Registry *Registry
	// Ring serves /debug/trace.
	Ring *RingSink
	// Observer serves /debug/tenants (the per-tenant accounting
	// snapshot) and, through its attached recorder, /debug/flight.
	Observer *Observer
	// Flight serves /debug/flight explicitly (defaults to
	// Observer.Flight() when nil).
	Flight *FlightRecorder
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose process internals and belong
	// behind an explicit opt-in.
	EnablePprof bool
}

// NewHTTPHandler serves the classic observability surface over HTTP:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/trace  Chrome trace-event JSON of the ring's current records
//	/             a tiny index linking everything mounted
//
// reg may be nil (404 for /metrics); ring may be nil (404 for
// /debug/trace). For tenant accounting, the flight recorder, and
// pprof, use NewHTTPHandlerOpts.
func NewHTTPHandler(reg *Registry, ring *RingSink) http.Handler {
	return NewHTTPHandlerOpts(HTTPOptions{Registry: reg, Ring: ring})
}

// NewHTTPHandlerOpts serves the full observability surface: /metrics,
// /debug/trace, /debug/tenants, /debug/flight, and (opt-in)
// /debug/pprof/.
func NewHTTPHandlerOpts(opts HTTPOptions) http.Handler {
	flight := opts.Flight
	if flight == nil {
		flight = opts.Observer.Flight()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>eas observability</h1><ul>`+
			`<li><a href="/metrics">/metrics</a> (Prometheus text)</li>`+
			`<li><a href="/debug/trace">/debug/trace</a> (Chrome trace-event JSON; load in Perfetto)</li>`)
		if opts.Observer != nil {
			fmt.Fprint(w, `<li><a href="/debug/tenants">/debug/tenants</a> (per-tenant accounting JSON)</li>`)
		}
		if flight != nil {
			fmt.Fprint(w, `<li><a href="/debug/flight">/debug/flight</a> (flight-recorder incident JSON)</li>`)
		}
		if opts.EnablePprof {
			fmt.Fprint(w, `<li><a href="/debug/pprof/">/debug/pprof/</a> (Go runtime profiles)</li>`)
		}
		fmt.Fprint(w, `</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := opts.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if opts.Ring == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="eas-trace.json"`)
		if err := WriteChromeTrace(w, opts.Ring.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		if opts.Observer == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(opts.Observer.TenantAccounting()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if flight == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// The latest frozen incident when a trigger has fired; a live
		// ring snapshot otherwise.
		if data := flight.LastDump(); data != nil {
			_, _ = w.Write(data)
			return
		}
		data, err := flight.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(data)
	})
	if opts.EnablePprof {
		// Mount the pprof handlers explicitly on this mux — importing
		// net/http/pprof also touches http.DefaultServeMux, but this
		// handler never serves through it.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

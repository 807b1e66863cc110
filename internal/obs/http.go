package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// NewHTTPHandler serves an observer's observability surface over HTTP:
//
//	/metrics        Prometheus text exposition of the registry
//	/debug/trace    Chrome trace-event JSON of the ring's current records
//	/debug/tenants  the per-tenant accounting snapshot
//	/debug/flight   the flight recorder's latest incident (404 unless armed)
//	/debug/pprof/   Go's profiling endpoints (only with enablePprof)
//	/               a tiny index linking everything mounted
//
// Callers leave enablePprof off by default: profiling endpoints expose
// process internals and belong behind an explicit opt-in. A nil
// observer serves 404 everywhere.
func NewHTTPHandler(o *Observer, enablePprof bool) http.Handler {
	if o == nil {
		return http.NotFoundHandler()
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
			`<li><a href="/debug/trace">/debug/trace</a> (Chrome trace-event JSON; load in Perfetto)</li>`+
			`<li><a href="/debug/tenants">/debug/tenants</a> (per-tenant accounting JSON)</li>`)
		if o.Flight() != nil {
			fmt.Fprint(w, `<li><a href="/debug/flight">/debug/flight</a> (flight-recorder incident JSON)</li>`)
		}
		if enablePprof {
			fmt.Fprint(w, `<li><a href="/debug/pprof/">/debug/pprof/</a> (Go runtime profiles)</li>`)
		}
		fmt.Fprint(w, `</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="eas-trace.json"`)
		if err := WriteChromeTrace(w, o.ring.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o.TenantAccounting()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		flight := o.Flight()
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
	if enablePprof {
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

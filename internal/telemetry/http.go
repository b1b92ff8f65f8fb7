package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Handler returns the live-introspection HTTP handler:
//
//	/            JSON run-progress document (also at /progress)
//	/metrics     Prometheus text exposition of the registry
//	/debug/vars  standard expvar dump (ProgressMonitor gauges)
//	/debug/pprof standard pprof index, profile, heap, trace, ...
//
// All routes are read-only and safe to scrape while the simulation runs:
// metric values are atomics and the progress document is mutex-copied.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	progress := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.ProgressDoc())
	}
	mux.HandleFunc("/{$}", progress)
	mux.HandleFunc("/progress", progress)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		t.reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts an HTTP server on addr serving Handler in a background
// goroutine and returns immediately. Errors (port in use, server shutdown)
// are reported through errFn when non-nil. Intended for cmd/supersim's
// -telemetry-addr flag; tests use httptest with Handler directly.
func (t *Telemetry) Serve(addr string, errFn func(error)) {
	srv := &http.Server{Addr: addr, Handler: t.Handler()}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			if errFn != nil {
				errFn(err)
			}
		}
	}()
}

package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// This file is the live side of the telemetry layer: an HTTP endpoint a
// long-running campaign or benchmark exposes behind -debug.addr, serving
// net/http/pprof (CPU/heap/goroutine profiling of recovery in flight),
// expvar, and the current metrics snapshot as JSON.

// newDebugMux builds the debug HTTP handler: /debug/pprof/*,
// /debug/vars (expvar), and /metrics serving whatever the snapshot
// function returns, as JSON. snap may be nil, in which case /metrics
// serves an empty object.
func newDebugMux(snap func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = struct{}{}
		if snap != nil {
			v = snap()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	return mux
}

// ServeDebug listens on addr and serves the debug mux in a background
// goroutine, returning the bound address (useful with ":0"). The server
// lives until the process exits; callers wanting a managed lifecycle use
// the returned *http.Server.
func ServeDebug(addr string, snap func() any) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: newDebugMux(snap)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// DebugMux returns a mux with the kdb debug surface: /metrics
// (Prometheus text) and /debug/pprof/* (the runtime profiler). It
// deliberately leaves "/" unregistered, so a server can layer its own
// routes — including a root index — on the same mux without a
// duplicate-pattern panic.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugHandler is DebugMux plus a root index page. It is served by
// `kdb --debug-addr`.
func DebugHandler(reg *Registry) http.Handler {
	mux := DebugMux(reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "kdb debug endpoints:\n  /metrics\n  /debug/pprof/\n")
	})
	return mux
}

package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugMux returns a mux with the kdb debug surface: /metrics
// (Prometheus text), /debug/vars (expvar JSON, including the registry
// snapshot published as "kdb_metrics"), and /debug/pprof/* (the runtime
// profiler). It deliberately leaves "/" unregistered, so a server can
// layer its own routes — including a root index — on the same mux
// without a duplicate-pattern panic.
func DebugMux(reg *Registry) *http.ServeMux {
	PublishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
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
		fmt.Fprint(w, "kdb debug endpoints:\n  /metrics\n  /debug/vars\n  /debug/pprof/\n")
	})
	return mux
}

var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarReg  *Registry
)

// PublishExpvar publishes reg's snapshot under the expvar name
// "kdb_metrics". expvar names are process-global and cannot be
// re-published, so the variable always reflects the most recently
// published registry.
func PublishExpvar(reg *Registry) {
	expvarMu.Lock()
	expvarReg = reg
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("kdb_metrics", expvar.Func(func() any {
			expvarMu.Lock()
			r := expvarReg
			expvarMu.Unlock()
			return r.Snapshot()
		}))
	})
}

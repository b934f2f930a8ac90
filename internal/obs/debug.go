package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugMux returns the profiling handler tree served on the daemon's
// -debug-addr listener (and usable under httptest by the e2e tests):
// the standard net/http/pprof endpoints under /debug/pprof/.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

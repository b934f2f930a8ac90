package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/obs"
)

// requestSeq numbers requests within the process for the request_id
// log attribute.
var requestSeq atomic.Int64

// statusRecorder captures the status code written by a handler so the
// request-accounting middleware can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a route's handler with panic recovery, the request
// body cap (unless the route is uncapped), the drain gate (if the route
// stopsOnDrain) and request/latency accounting under the route's
// pattern — not the raw (unbounded-cardinality) URL path. It also
// assigns the request a process-unique request_id, installs a logger
// carrying it in the request context (obs.Log), and installs the
// metrics registry so kernel hooks underneath record into /metrics.
func (s *Server) instrument(rt route, h http.HandlerFunc) http.HandlerFunc {
	route, capped := rt.pattern, rt.flags&uncapped == 0
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := "r-" + strconv.FormatInt(requestSeq.Add(1), 10)
		log := s.log().With("request_id", reqID, "route", route)
		ctx := r.Context()
		// End-to-end deadline: a caller that stamped its remaining budget
		// on the request (the CLI's -timeout, or the cluster client
		// deriving it from its own context minus the hop margin) gets a
		// real context deadline here, so queued work whose caller has
		// given up is dropped before it burns a worker, in-flight kernels
		// observe the expiry at their next poll, and every fan-out
		// underneath inherits min(its own timeout, what's left).
		if budget, ok := cluster.ParseDeadlineHeader(r.Header); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, start.Add(budget))
			defer cancel()
			log = log.With("deadline_ms", budget.Milliseconds())
		}
		// Join a peer's trace: the cluster client stamps every forwarded
		// and internal hop with a traceparent header; seeding the context
		// here makes whatever trace this request starts (runCluster, the
		// CSR receive, an async job) a segment of the sender's trace
		// rather than a disconnected root.
		if tid, sid, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.WithTraceSeed(ctx, obs.TraceSeed{TraceID: tid, ParentSpanID: sid})
			log = log.With("trace_id", tid)
		}
		ctx = obs.WithLogger(ctx, log)
		ctx = obs.WithMeter(ctx, s.metrics.reg)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w}
		if capped && r.Body != nil && s.cfg.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		}
		defer func() {
			if p := recover(); p != nil {
				log.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if rec.code == 0 {
					refuse(rec, errors.New("internal error"))
				}
			}
			code := rec.code
			if code == 0 {
				code = http.StatusOK
			}
			s.metrics.ObserveRequest(route, code, time.Since(start))
			log.Debug("request served",
				"method", r.Method, "path", r.URL.Path,
				"code", code, "millis", float64(time.Since(start))/float64(time.Millisecond))
		}()
		if rt.flags&stopsOnDrain != 0 && s.Draining() {
			refuse(rec, errDraining)
			return
		}
		h(rec, r)
	}
}

// writeJSON renders v with a status code. Encoding errors past the
// header write are unrecoverable and ignored.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

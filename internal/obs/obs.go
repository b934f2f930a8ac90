// Package obs is the observability substrate for the whole codebase:
// structured logging on log/slog, context-propagated span tracing with
// a ring-buffered JSONL sink, fixed-bucket histogram metrics with a
// Prometheus text exposition, and pprof wiring for the binaries.
//
// Everything is carried through context.Context so the kernels stay
// decoupled from the daemon: a run installs a logger and a root span,
// and the kernels underneath open child spans and set attributes on
// them — the span tree is a run's only record. Its owner reads what it
// needs off the finished tree: the daemon its metrics, StatsOf the job
// accounting. When no trace is installed — the library default, and the
// state every benchmark runs in — StartSpan is a single context value
// lookup and every span method a nil check, so instrumentation costs
// nothing measurable on the hot paths.
//
// The package depends only on the standard library and must never
// import another symcluster package, since every package that opens a
// span imports it. internal/matrix does not: a product returns its
// tally (matrix.Tally) to its caller, which sets it on its own span.
package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// Version is the build version, injected by the Makefile via
//
//	-ldflags "-X symcluster/internal/obs.Version=$(VERSION)"
//
// It appears in the symclusterd_build_info metric, the /healthz body,
// and the -version output of every binary.
var Version = "dev"

// ctxKey separates the obs context slots from everyone else's.
type ctxKey int

const (
	loggerKey ctxKey = iota
	spanKey
	seedKey
)

// NewLogger builds a slog.Logger writing to w. format selects the
// handler: "json" (the daemon default) or anything else for the
// human-readable text handler (the CLI default).
func NewLogger(w io.Writer, format string, level slog.Leveler) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel maps a flag value ("debug", "info", "warn", "error",
// case-insensitive) to its slog level, defaulting to Info for anything
// unrecognised.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// WithLogger installs l as the context logger returned by Log.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Log returns the context logger, or slog.Default() when none was
// installed, so call sites never need a nil check.
func Log(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return slog.Default()
}

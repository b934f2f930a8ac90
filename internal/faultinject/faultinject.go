// Package faultinject provides deterministic fault injection at named
// sites in the compute pipeline, for chaos-style testing of the
// symclusterd service and its kernels. A site is a string like
// "mcl.iterate" or "pool.task"; code under test calls Fire(site) at the
// site, and tests (or the SYMCLUSTER_FAULTS environment variable, for
// whole-daemon chaos drills) arm faults that make Fire return an error,
// panic, or sleep.
//
// When no fault is armed — the production steady state — Fire is a
// single atomic load, so the hooks are safe to leave in hot loops.
//
// Injection is deterministic: a fault fires on exact hit counts
// (optionally skipping the first Skip hits and firing at most Times
// times), never randomly, so a failing chaos test replays exactly.
//
// Sites wired into the pipeline:
//
//	pool.task         before a worker pool task runs
//	cache.get         inside the symmetrization cache lookup
//	cache.put         inside the symmetrization cache insert
//	core.symmetrize   entry of every symmetrization
//	mcl.iterate       each R-MCL iteration
//	mcl.checkpoint    each R-MCL flow-matrix checkpoint save
//	walk.power        each stationary-distribution power iteration
//	walk.checkpoint   each power-iteration π checkpoint save
//	spectral.lanczos  each Lanczos step
//	multilevel.level  each coarsening level
//	jobstore.append   each WAL record append (before the write)
//	jobstore.compact  each WAL compaction (before the rewrite)
//	csr.write         each binary CSR file finalize (before header/rename)
//	csr.ingest        each streaming-ingest finalize (before the merge)
//	proxy.forward     each cluster client request: a hop, or one CLI try (before the send)
//
// Sites where no error can propagate (the cache, whose API is
// infallible) honour only Panic and Delay faults; the returned error is
// ignored by the caller.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed fault does when it fires.
type Mode int

const (
	// Error makes Fire return the fault's Err (ErrInjected by default).
	Error Mode = iota
	// Panic makes Fire panic with a descriptive value.
	Panic
	// Delay makes Fire sleep for the fault's Delay before returning nil,
	// simulating a slow kernel or a scheduling stall.
	Delay
)

// String returns the mode's spec name.
func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrInjected is the default error returned by an Error-mode fault.
var ErrInjected = errors.New("faultinject: injected error")

// Fault describes one armed fault.
type Fault struct {
	// Mode selects error, panic or delay behaviour.
	Mode Mode
	// Err overrides the error returned in Error mode (ErrInjected when
	// nil).
	Err error
	// Delay is the sleep duration in Delay mode.
	Delay time.Duration
	// Skip suppresses the fault for the first Skip hits of the site.
	Skip int64
	// Times bounds how often the fault fires after the skipped hits;
	// 0 means every subsequent hit.
	Times int64
}

// state is one armed fault plus its hit counter.
type state struct {
	fault Fault
	hits  atomic.Int64
}

var (
	mu    sync.RWMutex
	sites map[string]*state
	armed atomic.Int64 // == len(sites); Fire's fast-path gate
)

// Set arms a fault at site, replacing any previous fault there and
// resetting the site's hit counter.
func Set(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*state)
	}
	if _, ok := sites[site]; !ok {
		armed.Add(1)
	}
	sites[site] = &state{fault: f}
}

// Clear disarms the fault at site, if any.
func Clear(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		delete(sites, site)
		armed.Add(-1)
	}
}

// Reset disarms every fault. Tests that arm faults must defer a Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	armed.Store(0)
}

// Hits returns how many times Fire has been reached at site since its
// fault was armed (whether or not the fault fired). Zero when no fault
// is armed there.
func Hits(site string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	if st, ok := sites[site]; ok {
		return st.hits.Load()
	}
	return 0
}

// Armed reports whether any fault is currently armed.
func Armed() bool { return armed.Load() > 0 }

// Fire triggers the fault armed at site, if any: it returns the fault's
// error, panics, or sleeps according to the fault's Mode, honouring
// Skip and Times. With no fault armed anywhere it is a single atomic
// load; with faults armed at other sites it is one RLock'd map lookup.
func Fire(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	st := sites[site]
	mu.RUnlock()
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	f := st.fault
	if n <= f.Skip {
		return nil
	}
	if f.Times > 0 && n > f.Skip+f.Times {
		return nil
	}
	switch f.Mode {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, n))
	case Delay:
		time.Sleep(f.Delay)
		return nil
	default:
		if f.Err != nil {
			return f.Err
		}
		return ErrInjected
	}
}

// FromSpec arms faults from a spec string, the format of the
// SYMCLUSTER_FAULTS environment variable: semicolon- or comma-separated
// entries of the form
//
//	site=mode[:duration][@skip[+times]]
//
// where mode is "error", "panic" or "delay" (delay requires a duration
// like "50ms"), skip suppresses the first N hits and times bounds how
// often the fault fires. Examples:
//
//	mcl.iterate=panic
//	cache.get=delay:100ms;pool.task=error@2+1
//
// An empty spec arms nothing. Errors leave already-parsed entries armed.
func FromSpec(spec string) error {
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		if !ok || site == "" {
			return fmt.Errorf("faultinject: bad entry %q (want site=mode[:duration][@skip[+times]])", entry)
		}
		var f Fault
		if at := strings.LastIndexByte(rest, '@'); at >= 0 {
			counts := rest[at+1:]
			rest = rest[:at]
			skipStr, timesStr, hasTimes := strings.Cut(counts, "+")
			if _, err := fmt.Sscanf(skipStr, "%d", &f.Skip); err != nil || f.Skip < 0 {
				return fmt.Errorf("faultinject: bad skip count in %q", entry)
			}
			if hasTimes {
				if _, err := fmt.Sscanf(timesStr, "%d", &f.Times); err != nil || f.Times < 1 {
					return fmt.Errorf("faultinject: bad times count in %q", entry)
				}
			}
		}
		mode, arg, hasArg := strings.Cut(rest, ":")
		switch mode {
		case "error":
			f.Mode = Error
		case "panic":
			f.Mode = Panic
		case "delay":
			f.Mode = Delay
			if !hasArg {
				return fmt.Errorf("faultinject: delay fault %q needs a duration (delay:50ms)", entry)
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return fmt.Errorf("faultinject: bad duration %q in %q", arg, entry)
			}
			f.Delay = d
			hasArg = false
		default:
			return fmt.Errorf("faultinject: unknown mode %q in %q (want error, panic or delay)", mode, entry)
		}
		if hasArg && mode != "delay" {
			return fmt.Errorf("faultinject: mode %q takes no argument in %q", mode, entry)
		}
		Set(site, f)
	}
	return nil
}

// Sites returns the currently armed site names, for startup logging.
func Sites() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	return out
}

package cluster

import (
	"io"
	"net/http"
	"sync"
	"time"

	"symcluster/internal/faultinject"
)

// Health actively probes every peer's /healthz and classifies each as
// up or down. Classification is hysteretic: a peer must fail
// FailThreshold consecutive probes to be declared down (one dropped
// packet doesn't trigger a failover) and must pass RecoverThreshold
// consecutive probes to come back (a flapping peer doesn't yo-yo
// ownership). Between those two points a down peer with recent
// successes is "half-open": still excluded from ownership, but on its
// way back. The local node (Self) is always healthy — a coordinator
// never routes away from itself on the word of its own prober.
type Health struct {
	cfg    HealthConfig
	client *Client

	mu    sync.Mutex
	peers map[string]*peerHealth

	stop chan struct{}
	done chan struct{}
}

type peerHealth struct {
	peer       *Peer
	up         bool
	consecFail int
	consecOK   int
}

// HealthConfig sizes a Health checker. Zero values select the defaults
// noted on each field.
type HealthConfig struct {
	// Self is the local peer's name; it is reported healthy without
	// probing.
	Self string
	// Interval is the probe period (default 2s).
	Interval time.Duration
	// ProbeTimeout bounds one probe (default Interval, capped at 5s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count that declares a
	// peer down (default 3).
	FailThreshold int
	// RecoverThreshold is the consecutive-success count that brings a
	// down peer back (default 2).
	RecoverThreshold int
	// OnChange, when non-nil, is called (outside the state lock) on
	// every up/down transition.
	OnChange func(peer *Peer, up bool)
	// OnDown, when non-nil, is called (outside the state lock, after
	// OnChange) on every failed probe of a down peer, the transition
	// probe included: it drives work that must retry while the peer
	// stays down (WAL adoption) without a poll loop of its own.
	OnDown func(peer *Peer)
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Interval
		if c.ProbeTimeout > 5*time.Second {
			c.ProbeTimeout = 5 * time.Second
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	return c
}

// NewHealth builds a checker over the given peers. All peers start up:
// assuming the cluster healthy at boot avoids a thundering herd of
// reroutes while the first probe round is still in flight.
func NewHealth(peers []*Peer, cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	h := &Health{
		cfg: cfg,
		// Probes never retry: a failed attempt IS the signal, and the
		// thresholds provide the damping a retry loop would duplicate.
		client: NewClient(ClientConfig{
			MaxAttempts:    1,
			AttemptTimeout: cfg.ProbeTimeout,
		}),
		peers: make(map[string]*peerHealth, len(peers)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, p := range peers {
		h.peers[p.Name] = &peerHealth{peer: p, up: true}
	}
	return h
}

// Start launches the probe loop. The first round runs immediately.
func (h *Health) Start() {
	go func() {
		defer close(h.done)
		h.probeAll()
		t := time.NewTicker(h.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.probeAll()
			}
		}
	}()
}

// Stop halts the probe loop and waits for it to exit.
func (h *Health) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

// Healthy reports whether the named peer is currently up. Self and
// unknown names are healthy (the ring only asks about known peers, and
// failing open for self keeps single-name clusters serving).
func (h *Health) Healthy(name string) bool {
	if name == h.cfg.Self {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.peers[name]
	if !ok {
		return true
	}
	return ph.up
}

// State returns the probe state of a peer for /healthz-style
// introspection: "up", "down", or "half-open" (down but with recent
// probe successes short of RecoverThreshold). Self is always "up".
func (h *Health) State(name string) string {
	if name == h.cfg.Self {
		return "up"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.peers[name]
	switch {
	case !ok || ph.up:
		return "up"
	case ph.consecOK > 0:
		return "half-open"
	default:
		return "down"
	}
}

// probeAll runs one probe round, sequentially — peer lists are small
// and sequential probes keep transitions ordered deterministically.
func (h *Health) probeAll() {
	h.mu.Lock()
	targets := make([]*peerHealth, 0, len(h.peers))
	for _, ph := range h.peers {
		if ph.peer.Name != h.cfg.Self {
			targets = append(targets, ph)
		}
	}
	h.mu.Unlock()
	for _, ph := range targets {
		h.Probe(ph.peer)
	}
}

// Probe performs one health probe of the peer and records the result,
// firing OnChange if the verdict crossed a threshold. Exposed so tests
// drive rounds synchronously instead of racing the ticker.
func (h *Health) Probe(p *Peer) {
	ok := h.probe(p)
	var changed *Peer
	var nowUp, downProbe bool
	h.mu.Lock()
	ph := h.peers[p.Name]
	if ph != nil {
		if !ok {
			ph.consecOK = 0
			ph.consecFail++
			if ph.up && ph.consecFail >= h.cfg.FailThreshold {
				ph.up = false
				changed, nowUp = ph.peer, false
			}
			downProbe = !ph.up
		} else {
			ph.consecFail = 0
			ph.consecOK++
			if !ph.up && ph.consecOK >= h.cfg.RecoverThreshold {
				ph.up = true
				changed, nowUp = ph.peer, true
			}
		}
	}
	h.mu.Unlock()
	if changed != nil && h.cfg.OnChange != nil {
		h.cfg.OnChange(changed, nowUp)
	}
	if downProbe && h.cfg.OnDown != nil {
		h.cfg.OnDown(p)
	}
}

// probe reports whether GET /healthz answered 200 (a draining peer
// serves 503 so traffic moves before it exits). A failure steers
// routing only: it cannot tell a dead process from a slow one. The
// "peer.health" fault site lets chaos tests fail probes of a live peer.
func (h *Health) probe(p *Peer) bool {
	if faultinject.Fire("peer.health") != nil {
		return false
	}
	resp, err := h.client.Do(bootContext(), http.MethodGet, p.URL+"/healthz", nil, nil)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

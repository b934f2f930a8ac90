// Package cluster is the multi-node substrate of symclusterd: the
// pieces a coordinator needs to shard graphs across a static peer list
// and reach the peer that owns one.
//
//   - cluster.go — peer specs ("http://host:port[*weight]"), their
//     parsing, and the ring's hash function
//   - ring.go    — weighted consistent hashing of graph fingerprints
//   - client.go  — the HTTP client every inter-node hop and the CLI's
//     -server mode go through: one request on the caller's context,
//     stamping the deadline, trace and forwarding headers
//
// A hop never waits: the client neither retries nor sleeps, and the one
// retry loop in the module is the CLI's (cmd/symcluster). The package
// holds no opinion on whether a peer is alive either: a hop gets an
// answer or it does not, and whether a dead peer's work moves is
// decided by its journal lock, in internal/server.
//
// The package is deliberately free of symcluster imports: it knows
// about peers, hashes and HTTP, not about graphs or jobs, so
// internal/server composes it without a dependency cycle.
//
// Fault injection: the "proxy.forward" site fires before every request,
// so chaos tests can make owners unreachable deterministically (see
// internal/faultinject).
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"strconv"
	"strings"
)

// Peer is one symclusterd node in the static cluster membership.
type Peer struct {
	// Name identifies the peer in logs, metrics and job-id
	// qualification: the host:port of its URL.
	Name string
	// URL is the peer's base URL ("http://host:port"), no trailing
	// slash.
	URL string
	// Weight scales the peer's share of the fingerprint ring (virtual
	// node count). Operators size it to capacity; 1 is the default.
	Weight int
}

// ParsePeers parses the -peers flag: a comma-separated list of
// "http://host:port" entries, each optionally suffixed with "*weight"
// to give bigger machines a proportionally larger slice of the
// fingerprint ring. Names (host:port) must be unique.
func ParsePeers(spec string) ([]*Peer, error) {
	var peers []*Peer
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		p, err := ParsePeer(entry)
		if err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}

// ParsePeer parses one "http://host:port[*weight]" entry.
func ParsePeer(entry string) (*Peer, error) {
	weight := 1
	if at := strings.LastIndexByte(entry, '*'); at >= 0 {
		w, err := strconv.Atoi(entry[at+1:])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("cluster: bad peer weight in %q (want a positive integer)", entry)
		}
		weight = w
		entry = entry[:at]
	}
	u, err := url.Parse(entry)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad peer URL %q: %w", entry, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("cluster: peer %q must use http or https", entry)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: peer %q has no host", entry)
	}
	if u.Path != "" && u.Path != "/" {
		return nil, fmt.Errorf("cluster: peer %q must not have a path", entry)
	}
	return &Peer{
		Name:   u.Host,
		URL:    u.Scheme + "://" + u.Host,
		Weight: weight,
	}, nil
}

// HashString returns the 64-bit FNV-1a hash of s — the ring position
// function, exported so callers can place non-fingerprint keys (e.g. a
// graph id off the wire that is not a fingerprint) on the same ring.
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

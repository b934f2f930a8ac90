package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"symcluster/internal/cluster"
)

// BenchmarkRoutedCluster is one sync request of the repository
// benchmark's serve_mixed workload with both nodes in the process: the
// Wikipedia-like 8+8 graph (≈540 nodes), degree-discounted at 0.05 and
// served from the symmetrization cache, Graclus into the planted 16
// clusters — sent to the node that owns the graph (self) and to the one
// that must forward it (peer). The difference is the routed path: one
// resolve, one proxy hop, one relay. self/built is self with the
// owner's cache budget cut to the graph alone, so its memo is refused
// every keep and each request coarsens again: hit against built on one
// screen.
func BenchmarkRoutedCluster(b *testing.B) {
	ds, edges := servingWiki(b)

	// Fixed peer names, as the repository benchmark uses: ring positions
	// must not move with the ephemeral ports.
	names := []string{"bench-node-0", "bench-node-1"}
	listeners := make([]net.Listener, len(names))
	peers := make([]*cluster.Peer, len(names))
	for i, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = l
		peers[i] = &cluster.Peer{Name: name, URL: "http://" + l.Addr().String(), Weight: 1}
	}
	urls, caches := map[string]string{}, map[string]*Cache{}
	for i, name := range names {
		s, err := New(Config{Workers: 2, Cluster: &ClusterConfig{Self: name, Peers: peers}})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		urls[name], caches[name] = ts.URL, s.cache
		b.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
			s.Close()
		})
	}

	resp, err := http.Post(urls[names[0]]+"/v1/graphs", "text/plain", bytes.NewReader(edges))
	if err != nil {
		b.Fatal(err)
	}
	var info GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
		b.Fatalf("register: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	self, ok := cluster.NewRing(peers, 0).Owner(ringKey(info.ID), nil)
	if !ok {
		b.Fatal("no owner")
	}
	peer := names[0]
	if peer == self.Name {
		peer = names[1]
	}
	body, err := json.Marshal(ClusterRequest{GraphID: info.ID, Method: "dd", Threshold: 0.05, Algorithm: "graclus", K: ds.Truth.K, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	for _, via := range []struct {
		name, node string
		built      bool
	}{{"self", self.Name, false}, {"self/built", self.Name, true}, {"peer", peer, false}} {
		b.Run("owner="+via.name, func(b *testing.B) {
			// An empty cache each time: request -2 fills it with U (and
			// shows what U is charged), -1 keeps the hierarchy or is refused.
			cache := caches[self.Name]
			cache.mu.Lock()
			cache.items, cache.used, cache.budget = map[CacheKey]*list.Element{}, 0, 256<<20
			cache.order.Init()
			cache.mu.Unlock()
			b.ReportAllocs()
			for i := -2; i < b.N; i++ {
				if i == -1 && via.built {
					cache.mu.Lock()
					cache.budget = cache.used
					cache.mu.Unlock()
				}
				if i == 0 {
					b.ResetTimer()
				}
				resp, err := http.Post(urls[via.node]+"/v1/cluster", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

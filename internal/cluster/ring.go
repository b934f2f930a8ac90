package cluster

import (
	"fmt"
	"sort"
)

// Ring consistent-hashes graph fingerprints over the peer set. Each
// peer owns Weight × replicas virtual points on a 64-bit ring; a
// fingerprint belongs to the peer of the first point at or after its
// (mixed) hash. Owner can skip peers a caller's predicate rejects,
// handing their ranges to the next accepted peer clockwise; symclusterd
// passes none, so a graph's owner is fixed by the ring alone. The ring
// itself is immutable after construction (membership is static, from
// -peers).
type Ring struct {
	peers  []*Peer
	byName map[string]*Peer
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer *Peer
}

// DefaultReplicas is the virtual-node count per unit of peer weight.
// 64 keeps the maximum ownership imbalance under a few percent for
// small clusters while the ring stays tiny (N × weight × 64 points).
const DefaultReplicas = 64

// NewRing builds the ring. replicas ≤ 0 selects DefaultReplicas.
func NewRing(peers []*Peer, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{byName: make(map[string]*Peer, len(peers))}
	for _, p := range peers {
		r.peers = append(r.peers, p)
		r.byName[p.Name] = p
		w := p.Weight
		if w < 1 {
			w = 1
		}
		for i := 0; i < w*replicas; i++ {
			r.points = append(r.points, ringPoint{
				hash: HashString(fmt.Sprintf("%s#%d", p.Name, i)),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// mix64 is the splitmix64 finalizer: graph fingerprints are already
// hashes, but mixing decorrelates them from the FNV vnode positions so
// near-identical fingerprints don't clump on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the peer owning fingerprint fp, walking clockwise from
// fp's ring position past any peers the accept predicate rejects. ok is
// false when the predicate rejects every peer. A nil predicate accepts
// every peer, so the first one clockwise owns fp.
func (r *Ring) Owner(fp uint64, accept func(name string) bool) (*Peer, bool) {
	if len(r.points) == 0 {
		return nil, false
	}
	h := mix64(fp)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.peers))
	for i := 0; i < len(r.points) && len(seen) < len(r.peers); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if seen[pt.peer.Name] {
			continue
		}
		seen[pt.peer.Name] = true
		if accept == nil || accept(pt.peer.Name) {
			return pt.peer, true
		}
	}
	return nil, false
}

// Peer returns the member with the given name.
func (r *Ring) Peer(name string) (*Peer, bool) {
	p, ok := r.byName[name]
	return p, ok
}

// Peers returns the static membership, in -peers order.
func (r *Ring) Peers() []*Peer { return append([]*Peer(nil), r.peers...) }

package pipeline

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"symcluster/internal/core"
)

// TestMultilevelAssignmentsPinned holds Graclus and Metis to the
// assignments they produced before the hierarchy was rebuilt
// allocation-light (contraction in coarse-row order, the builder's
// row-major path, the typed FM heap, the direct induce): on the
// benchmark's serving family — Wikipedia-like graphs of 8 list and 8
// reciprocal clusters — under each of the four symmetrizations, twelve
// graph-and-cluster seeds each, every assignment must hash to the digest
// recorded from commit 0668ff0. A last-bit change in one contracted
// weight flips exact ties on the dd graphs, so this is a bit-identity
// check, not a quality check; a change that means to alter results
// re-records the digests and says why.
func TestMultilevelAssignmentsPinned(t *testing.T) {
	want := map[string]uint64{
		"aat/graclus": 0xeb7b5f08aac4b6aa, "aat/metis": 0x0faa6d48794ce8e0,
		"rw/graclus": 0x0c9c8b7371bc21a4, "rw/metis": 0x4d6a8c196cf933dd,
		"bib/graclus": 0x906bff799d095b43, "bib/metis": 0xf95849c20e77dbd3,
		"dd/graclus": 0x29b229ede2df470c, "dd/metis": 0xc6dd0b91a24450c6,
	}
	ctx := context.Background()
	for _, m := range []struct {
		name      string
		threshold float64
	}{{"aat", 0}, {"rw", 0}, {"bib", 2}, {"dd", 0.05}} {
		sym, err := LookupSymmetrizer(m.name)
		if err != nil {
			t.Fatal(err)
		}
		digest := map[string]hash.Hash64{"graclus": fnv.New64a(), "metis": fnv.New64a()}
		for seed := int64(0); seed < 12; seed++ {
			ds := benchWiki(t, 1000+seed)
			opt := core.Defaults()
			opt.Threshold = m.threshold
			u, err := sym.Run(ctx, ds.Graph, opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, h := range digest {
				cl, err := LookupClusterer(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(ctx, Input{U: u, G: ds.Graph}, ClusterOptions{TargetClusters: ds.Truth.K, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range res.Assign {
					binary.Write(h, binary.LittleEndian, int32(a))
				}
			}
		}
		for name, h := range digest {
			key := m.name + "/" + name
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: assignments hash to %#016x, recorded %#016x", key, got, want[key])
			}
		}
	}
}

package pipeline

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/multilevel"
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
//
// Graclus is run three ways and held to the one digest each time: with
// no memo (the library's path, and the daemon's on a symmetrization
// miss), through a fresh per-U hierarchy memo (every run builds and
// keeps), and through that memo again (every run is a hit). Metis then
// runs twice through the same memo: its first bisection asks the same
// seed deeper (MinNodes 64 against 256), so the first run builds and
// keeps the deeper hierarchy — of which Graclus' is a prefix — and the
// second is a hit. Per memo: one shallow build, one deep, then hits.
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
		type variant struct {
			algo string
			memo bool
			h    hash.Hash64
		}
		variants := []*variant{
			{"graclus", false, fnv.New64a()}, {"metis", false, fnv.New64a()},
			{"graclus", true, fnv.New64a()}, {"graclus", true, fnv.New64a()},
			{"metis", true, fnv.New64a()}, {"metis", true, fnv.New64a()},
		}
		builds := 0
		for seed := int64(0); seed < 12; seed++ {
			ds := benchWiki(t, 1000+seed)
			opt := core.Defaults()
			opt.Threshold = m.threshold
			u, err := sym.Run(ctx, ds.Graph, opt)
			if err != nil {
				t.Fatal(err)
			}
			memo := multilevel.NewMemo(u.Adj, func(int64) bool { builds++; return true })
			for _, v := range variants {
				cl, err := LookupClusterer(v.algo)
				if err != nil {
					t.Fatal(err)
				}
				in := Input{U: u, G: ds.Graph}
				if v.memo {
					in.Hier = memo
				}
				res, err := cl.Run(ctx, in, ClusterOptions{TargetClusters: ds.Truth.K, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range res.Assign {
					binary.Write(v.h, binary.LittleEndian, int32(a))
				}
			}
		}
		if builds != 24 {
			t.Errorf("%s: %d hierarchies built through 12 memos, want two each (Graclus', then Metis' deeper one; then all hits)", m.name, builds)
		}
		for _, v := range variants {
			key := m.name + "/" + v.algo
			if got := v.h.Sum64(); got != want[key] {
				t.Errorf("%s (memo %v): assignments hash to %#016x, recorded %#016x", key, v.memo, got, want[key])
			}
		}
	}
}

// TestGraclusKSweepThroughMemo: one cached U re-clustered over a sweep
// of cluster counts, as the paper's Figs 6–7 do, through one memo —
// 8 → 128 → 8, which crosses 4k > 256, where MinNodes starts to follow k
// and the kept hierarchy is served as a prefix — returns what nil-memo
// runs return; a sweep that starts shallow rebuilds once it must go
// deeper, and still does.
func TestGraclusKSweepThroughMemo(t *testing.T) {
	ctx := context.Background()
	cl, _ := LookupClusterer("graclus")
	dd, _ := LookupSymmetrizer("dd")
	ds := benchWiki(t, 1000)
	opt := core.Defaults()
	opt.Threshold = 0.05
	u, err := dd.Run(ctx, ds.Graph, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []struct {
		ks     []int
		builds int
	}{
		{[]int{8, 16, 32, 64, 96, 128, 96, 64, 32, 16, 8}, 1},
		{[]int{128, 96, 8, 128}, 2}, // one contraction serves 512 and 384; 256 goes deeper; then a prefix
	} {
		builds := 0
		memo := multilevel.NewMemo(u.Adj, func(int64) bool { builds++; return true })
		for _, k := range sweep.ks {
			clOpt := ClusterOptions{TargetClusters: k, Seed: 1}
			want, err := cl.Run(ctx, Input{U: u}, clOpt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Run(ctx, Input{U: u, Hier: memo}, clOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assign, want.Assign) {
				t.Fatalf("sweep %v: k=%d through the memo differs from a nil-memo run", sweep.ks, k)
			}
		}
		if builds != sweep.builds {
			t.Errorf("sweep %v: %d hierarchies built, want %d", sweep.ks, builds, sweep.builds)
		}
	}
}

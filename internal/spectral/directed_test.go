package spectral

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// directedBlocks builds k directed blocks: dense random directed edges
// inside each block, sparse across.
func directedBlocks(rng *rand.Rand, k, sz int, pin, pout float64) (*matrix.CSR, []int) {
	n := k * sz
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i / sz
	}
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p := pout
			if truth[i] == truth[j] {
				p = pin
			}
			if rng.Float64() < p {
				b.Add(i, j, 1)
			}
		}
	}
	return b.Build(), truth
}

func clusterPurity(assign, truth []int, k int) float64 {
	// For each true block, the fraction captured by its majority
	// cluster, averaged.
	blocks := map[int][]int{}
	for i, tc := range truth {
		blocks[tc] = append(blocks[tc], assign[i])
	}
	var total float64
	for _, members := range blocks {
		counts := map[int]int{}
		for _, a := range members {
			counts[a]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		total += float64(best) / float64(len(members))
	}
	return total / float64(len(blocks))
}

func TestBestWCutRecoversDirectedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, truth := directedBlocks(rng, 3, 30, 0.3, 0.01)
	res, err := BestWCutCtx(context.Background(), a, 3, BestWCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := clusterPurity(res.Assign, truth, 3); p < 0.9 {
		t.Fatalf("purity %v too low", p)
	}
	if len(res.Eigenvalues) != 3 {
		t.Fatalf("eigenvalues %v", res.Eigenvalues)
	}
}

func TestBestWCutErrors(t *testing.T) {
	if _, err := BestWCutCtx(context.Background(), matrix.Zero(2, 3), 2, BestWCutOptions{}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := BestWCutCtx(context.Background(), matrix.Zero(3, 3), 0, BestWCutOptions{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := BestWCutCtx(context.Background(), matrix.Zero(3, 3), 7, BestWCutOptions{}); err == nil {
		t.Fatal("accepted k>n")
	}
	res, err := BestWCutCtx(context.Background(), matrix.Zero(0, 0), 2, BestWCutOptions{})
	if err != nil || len(res.Assign) != 0 {
		t.Fatal("empty graph should return empty result")
	}
}

func TestZhouDirectedRecoversBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, truth := directedBlocks(rng, 3, 30, 0.3, 0.01)
	res, err := ZhouDirectedCtx(context.Background(), a, 3, ZhouOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := clusterPurity(res.Assign, truth, 3); p < 0.9 {
		t.Fatalf("purity %v too low", p)
	}
}

func TestZhouDirectedErrors(t *testing.T) {
	if _, err := ZhouDirectedCtx(context.Background(), matrix.Zero(2, 3), 2, ZhouOptions{}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := ZhouDirectedCtx(context.Background(), matrix.Zero(3, 3), 0, ZhouOptions{}); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestDirectedSpectralMissFigure1Pattern(t *testing.T) {
	// The paper's core argument (§2.1.1): clusters defined by shared
	// in/out-links without interlinkage have a HIGH directed ncut, so
	// ncut-minimising spectral methods do not recover them reliably. We
	// verify the premise numerically: the {4,5} group of Figure 1 has a
	// directed ncut close to the worst case (every walk step leaves the
	// group).
	b := matrix.NewBuilder(6, 6)
	for _, src := range []int{0, 1} {
		for _, dst := range []int{4, 5} {
			b.Add(src, dst, 1)
		}
	}
	for _, src := range []int{4, 5} {
		for _, dst := range []int{2, 3} {
			b.Add(src, dst, 1)
		}
	}
	a := b.Build()
	// Directed ncut of S = {4,5} under the teleported walk: compute
	// from first principles.
	// All out-edges of 4 and 5 leave S; all in-edges of 4,5 come from
	// outside. The ncut must therefore be near its maximum (≈ 2 without
	// teleport smoothing). Anything above 1 confirms "high".
	pi := mustPageRank(t, a)
	p := mustTransition(a)
	var cutOut, cutIn, volS, volSbar float64
	inS := []bool{false, false, false, false, true, true}
	for i := 0; i < 6; i++ {
		if inS[i] {
			volS += pi[i]
		} else {
			volSbar += pi[i]
		}
		cols, vals := p.Row(i)
		for k, c := range cols {
			if inS[i] && !inS[c] {
				cutOut += pi[i] * vals[k]
			}
			if !inS[i] && inS[c] {
				cutIn += pi[i] * vals[k]
			}
		}
	}
	ncut := cutOut/volS + cutIn/volSbar
	if ncut < 1 {
		t.Fatalf("Figure-1 cluster directed ncut %v unexpectedly low", ncut)
	}
}

func mustPageRank(t *testing.T, a *matrix.CSR) []float64 {
	t.Helper()
	pi, err := pageRankForTest(a)
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

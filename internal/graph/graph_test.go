package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

func directedFromDense(t *testing.T, d [][]float64) *Directed {
	t.Helper()
	g, err := NewDirected(matrix.FromDense(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func undirectedFromDense(t *testing.T, d [][]float64) *Undirected {
	t.Helper()
	g, err := NewUndirected(matrix.FromDense(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewDirectedRejectsNonSquare(t *testing.T) {
	if _, err := NewDirected(matrix.Zero(2, 3), nil); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestNewDirectedRejectsBadLabels(t *testing.T) {
	if _, err := NewDirected(matrix.Zero(2, 2), []string{"a"}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

func TestLabelFallback(t *testing.T) {
	g := directedFromDense(t, [][]float64{{0, 1}, {0, 0}})
	if g.Label(1) != "v1" {
		t.Fatalf("unlabelled fallback = %q", g.Label(1))
	}
	g.Labels = []string{"alpha", "beta"}
	if g.Label(1) != "beta" {
		t.Fatalf("label = %q", g.Label(1))
	}
}

func TestDegrees(t *testing.T) {
	g := directedFromDense(t, [][]float64{
		{0, 1, 1},
		{0, 0, 1},
		{0, 0, 0},
	})
	out := g.OutDegrees()
	in := g.InDegrees()
	if out[0] != 2 || out[1] != 1 || out[2] != 0 {
		t.Fatalf("out degrees %v", out)
	}
	if in[0] != 0 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("in degrees %v", in)
	}
}

// fnvFingerprint is Fingerprint as it stood on hash/fnv: every word
// written as eight little-endian bytes. Graph ids, ring placement, WAL
// and CSR file names and cache keys are all made from this value.
func fnvFingerprint(g *Directed) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.Adj.Rows))
	put(uint64(g.Adj.NNZ()))
	for _, p := range g.Adj.RowPtr {
		put(uint64(p))
	}
	for _, c := range g.Adj.ColIdx {
		put(uint64(c))
	}
	for _, v := range g.Adj.Val {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestFingerprintIsFNV1a: folding runs of zero bytes into one
// multiplication leaves the hash hash/fnv's, byte for byte — over the
// words where a run starts or ends at either edge, random words with
// random bytes zeroed, and whole graphs.
func TestFingerprintIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := []uint64{0, 1, 0xff, 0x100, 0xff00, 0xff << 56, 1 << 63, 0x00ff_0000_0000_ff00, ^uint64(0),
		math.Float64bits(1), math.Float64bits(0.5), math.Float64bits(-0.0), math.MaxInt32, math.MaxInt32 - 1}
	for k := 0; k < 2000; k++ {
		w := rng.Uint64()
		for b := 0; b < 8; b++ {
			if rng.Intn(2) == 0 {
				w &^= 0xff << (8 * b)
			}
		}
		words = append(words, w)
	}
	for _, seed := range []uint64{fnvOffset, 0, ^uint64(0), rng.Uint64()} {
		for _, w := range words {
			want := seed
			for b := 0; b < 8; b++ {
				want = (want ^ (w >> (8 * b) & 0xff)) * fnvPrime
			}
			if got := fnvWord(seed, w); got != want {
				t.Fatalf("fnvWord(%#x, %#016x) = %#x, byte by byte %#x", seed, w, got, want)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		b := matrix.NewBuilder(n, n)
		for e := rng.Intn(5 * n); e > 0; e-- {
			b.Add(rng.Intn(n), rng.Intn(n), []float64{1, 1, 1, 0.5, 3, rng.Float64(), 1e-300, 1e300}[rng.Intn(8)])
		}
		g := &Directed{Adj: b.Build()}
		if got, want := g.Fingerprint(), fnvFingerprint(g); got != want {
			t.Fatalf("trial %d: Fingerprint = %016x, hash/fnv %016x", trial, got, want)
		}
	}
	// The paper's Figure 1 graph: the id the verify notes and the
	// server's tests know it by.
	fig1, err := ReadEdgeList(strings.NewReader("0 4\n0 5\n1 4\n1 5\n4 2\n4 3\n5 2\n5 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fig1.Fingerprint(); got != 0x607da3fd0883df03 {
		t.Fatalf("Figure 1 fingerprint = %016x, want 607da3fd0883df03", got)
	}
}

func TestSymmetricLinkFraction(t *testing.T) {
	// Edges: 0→1, 1→0 (reciprocal pair), 0→2 (one-way). 2 of 3 edges
	// have a reciprocal.
	g := directedFromDense(t, [][]float64{
		{0, 1, 1},
		{1, 0, 0},
		{0, 0, 0},
	})
	got := g.SymmetricLinkFraction()
	want := 2.0 / 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("symmetric fraction = %v, want %v", got, want)
	}
}

// transposeSymmetricLinks is the reciprocal-link count as
// SymmetricLinkFraction took it before it counted in place: merge every
// row with the same row of a materialised transpose.
func transposeSymmetricLinks(g *Directed) int {
	t := g.Adj.Transpose()
	recip := 0
	for i := 0; i < g.N(); i++ {
		ac, _ := g.Adj.Row(i)
		bc, _ := t.Row(i)
		p, q := 0, 0
		for p < len(ac) && q < len(bc) {
			switch {
			case ac[p] < bc[q]:
				p++
			case bc[q] < ac[p]:
				q++
			default:
				recip++
				p++
				q++
			}
		}
	}
	return recip
}

func TestSymmetricLinkFractionMatchesTransposeCount(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		b := matrix.NewBuilder(n, n)
		for e := int(dRaw) % (4 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n) // self-loops included
			b.Add(u, v, 1)
			if rng.Intn(3) == 0 {
				b.Add(v, u, 1)
			}
		}
		g := &Directed{Adj: b.Build()}
		if g.M() == 0 {
			return g.SymmetricLinkFraction() == 0
		}
		return g.SymmetricLinkFraction() == float64(transposeSymmetricLinks(g))/float64(g.M())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricLinkFractionExtremes(t *testing.T) {
	empty := directedFromDense(t, [][]float64{{0, 0}, {0, 0}})
	if empty.SymmetricLinkFraction() != 0 {
		t.Fatal("empty graph fraction != 0")
	}
	full := directedFromDense(t, [][]float64{{0, 1}, {1, 0}})
	if full.SymmetricLinkFraction() != 1 {
		t.Fatal("fully reciprocal graph fraction != 1")
	}
	oneway := directedFromDense(t, [][]float64{{0, 1}, {0, 0}})
	if oneway.SymmetricLinkFraction() != 0 {
		t.Fatal("one-way edge counted as symmetric")
	}
}

func TestUndirectedRejectsAsymmetric(t *testing.T) {
	if _, err := NewUndirected(matrix.FromDense([][]float64{{0, 1}, {0, 0}}), nil); err == nil {
		t.Fatal("accepted asymmetric adjacency for small graph")
	}
}

func TestUndirectedEdgeCount(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{2, 1, 0},
		{1, 0, 3},
		{0, 3, 0},
	})
	// Edges: {0,1}, {1,2} and the self-loop at 0.
	if got := g.M(); got != 3 {
		t.Fatalf("M = %d, want 3", got)
	}
}

func TestWeightedDegrees(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{0, 2},
		{2, 0},
	})
	wd := g.WeightedDegrees()
	if wd[0] != 2 || wd[1] != 2 {
		t.Fatalf("weighted degrees %v", wd)
	}
}

func TestTopEdges(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{9, 5, 1},
		{5, 0, 7},
		{1, 7, 0},
	})
	top := g.TopEdges(2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].U != 1 || top[0].V != 2 || top[0].Weight != 7 {
		t.Fatalf("top edge = %+v (self-loop must be excluded)", top[0])
	}
	if top[1].U != 0 || top[1].V != 1 || top[1].Weight != 5 {
		t.Fatalf("second edge = %+v", top[1])
	}
	all := g.TopEdges(100)
	if len(all) != 3 {
		t.Fatalf("asked for more than exist: %d", len(all))
	}
}

func TestTopEdgesDeterministicTies(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{0, 1, 1},
		{1, 0, 1},
		{1, 1, 0},
	})
	top := g.TopEdges(3)
	if top[0].U != 0 || top[0].V != 1 || top[1].U != 0 || top[1].V != 2 || top[2].U != 1 || top[2].V != 2 {
		t.Fatalf("tie order not deterministic: %+v", top)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	labels, count := g.ConnectedComponents()
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestSingletons(t *testing.T) {
	g := undirectedFromDense(t, [][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 0},
	})
	if got := g.Singletons(); got != 1 {
		t.Fatalf("singletons = %d, want 1", got)
	}
	// A node with only a self-loop is still a singleton.
	loop := undirectedFromDense(t, [][]float64{{4}})
	if got := loop.Singletons(); got != 1 {
		t.Fatalf("self-loop-only singletons = %d, want 1", got)
	}
}

func TestHistogramDegrees(t *testing.T) {
	h := HistogramDegrees([]int{0, 1, 1, 2, 3, 4, 7, 8, 100})
	if h.Zero != 1 {
		t.Fatalf("zero bucket = %d", h.Zero)
	}
	// [1,2): two nodes; [2,4): two; [4,8): two; [8,16): one; [64,128): one.
	want := map[int]int{0: 2, 1: 2, 2: 2, 3: 1, 6: 1}
	for b, n := range want {
		if h.Buckets[b] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", b, h.Buckets[b], n, h.Buckets)
		}
	}
}

func TestDegreeSummaries(t *testing.T) {
	d := []int{1, 5, 3, 2}
	if MaxDegree(d) != 5 {
		t.Fatalf("max = %d", MaxDegree(d))
	}
	if MedianDegree(d) != 2 {
		t.Fatalf("median = %d", MedianDegree(d))
	}
	if MeanDegree(d) != 2.75 {
		t.Fatalf("mean = %v", MeanDegree(d))
	}
	if MaxDegree(nil) != 0 || MedianDegree(nil) != 0 || MeanDegree(nil) != 0 {
		t.Fatal("empty-sequence summaries non-zero")
	}
}

package symcluster_test

import (
	"math"
	"math/rand"
	"testing"

	"symcluster"
)

func TestAgreementIndicesPublic(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{3, 3, 9, 9}
	nmi, err := symcluster.NMI(a, b)
	if err != nil || math.Abs(nmi-1) > 1e-12 {
		t.Fatalf("NMI = %v, err %v", nmi, err)
	}
	ari, err := symcluster.ARI(a, b)
	if err != nil || math.Abs(ari-1) > 1e-12 {
		t.Fatalf("ARI = %v, err %v", ari, err)
	}
	pur, err := symcluster.Purity(a, b)
	if err != nil || pur != 1 {
		t.Fatalf("Purity = %v, err %v", pur, err)
	}
}

func TestCoClusterBipartitePublic(t *testing.T) {
	// Two planted co-clusters.
	rng := rand.New(rand.NewSource(9))
	rows, cols := 40, 30
	b := buildBipartite(rng, rows, cols)
	res, err := symcluster.CoClusterBipartite(b, symcluster.BipartiteOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowAssign) != rows || len(res.ColAssign) != cols {
		t.Fatalf("dims %d/%d", len(res.RowAssign), len(res.ColAssign))
	}
	// Rows 0..19 vs 20..39 should separate.
	if res.RowAssign[0] != res.RowAssign[10] || res.RowAssign[0] == res.RowAssign[30] {
		t.Fatalf("row blocks not separated: %v", res.RowAssign)
	}
}

func buildBipartite(rng *rand.Rand, rows, cols int) *symcluster.Matrix {
	data := make([][]float64, rows)
	for i := range data {
		data[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			p := 0.02
			if (i < rows/2) == (j < cols/2) {
				p = 0.5
			}
			if rng.Float64() < p {
				data[i][j] = 1
			}
		}
	}
	return fromDense(data)
}

func TestPlainMCLAndSpectralNCutPublic(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 400, Topics: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	u, err := symcluster.Symmetrize(data.Graph, symcluster.Bibliometric, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := symcluster.PlainMCL(u, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Assign) != 400 || pm.K < 1 {
		t.Fatalf("PlainMCL K=%d", pm.K)
	}
	sp, err := symcluster.SpectralNCut(u, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 5 || len(sp.Assign) != 400 {
		t.Fatalf("SpectralNCut K=%d", sp.K)
	}
}

func TestModularityPublic(t *testing.T) {
	data := symcluster.Figure1()
	u, err := symcluster.Symmetrize(data.Graph, symcluster.Bibliometric, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := symcluster.Modularity(u, []int{0, 0, 1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 {
		t.Fatalf("natural grouping modularity %v, want positive", q)
	}
	qd, err := symcluster.ModularityDirected(data.Graph, []int{0, 0, 1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = qd // any finite value acceptable for the flow pattern
}

// fromDense builds a Matrix through the public API surface only.
func fromDense(d [][]float64) *symcluster.Matrix {
	rows, cols := len(d), len(d[0])
	m := &symcluster.Matrix{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for i, row := range d {
		for j, v := range row {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment). They run on
// the small-scale dataset substitutes so `go test -bench=.` finishes in
// minutes; use `cmd/experiments -scale paper` for full-size runs.
// Ablation benchmarks for the design choices called out in DESIGN.md §5
// live at the bottom.
package symcluster_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/experiments"
	"symcluster/internal/gen"
	"symcluster/internal/matrix"
)

var (
	benchOnce sync.Once
	benchData *experiments.Datasets
)

func benchDatasets(b *testing.B) *experiments.Datasets {
	b.Helper()
	benchOnce.Do(func() {
		d, err := experiments.Load(experiments.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchData = d
	})
	return benchData
}

func BenchmarkTable1_DatasetStats(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(d)
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTable2_SymmetrizationSizes(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_PruneThreshold(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(d.Wiki, []float64{0.02, 0.05}, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_AlphaBeta(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(d.Cora, d.Wiki, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_TopEdges(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(d.Wiki, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4_DegreeDistributions(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(d.Wiki); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5a_CoraMLRMCL(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(d.Cora, experiments.AlgoMLRMCL, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5b_CoraGraclus(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(d.Cora, experiments.AlgoGraclus, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_DDvsBestWCut(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(d.Cora, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Faithful_DenseEigBestWCut(b *testing.B) {
	// Uses a reduced Cora: the dense eigensolver is O(n³) by design
	// (that is the point of the comparison).
	cora, err := gen.Citation(gen.CitationOptions{Nodes: 1000, Topics: 20, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cora.Name = "cora"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6Faithful(cora, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7a_WikiMLRMCL(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(d.Wiki, experiments.AlgoMLRMCL, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7b_WikiMetis(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(d.Wiki, experiments.AlgoMetis, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_WikiTimes(b *testing.B) {
	// Figure 8 is the timing view of the Figure 7 sweeps.
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(d.Wiki, experiments.AlgoMLRMCL, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9a_FlickrTimes(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(d.Flickr, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9b_LiveJournalTimes(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(d.LiveJournal, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignTest(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SignTests(d.Cora, d.Wiki, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudy_ListClusters(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CaseStudy(d.Wiki, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpamProbe(b *testing.B) {
	d := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpamProbe(d.Wiki, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControlledSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ControlledSweep([]float64{0, 0.5, 1},
			gen.ControlledOptions{Clusters: 20, MembersPerCluster: 15, Seed: 1}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblation_PruneDuringVsAfter compares pruning inside the
// self-product's row loop (the implementation) against materialising
// the full product and pruning afterwards.
func BenchmarkAblation_PruneDuringVsAfter(b *testing.B) {
	d := benchDatasets(b)
	a := d.Wiki.Graph.Adj
	at := a.Transpose()
	b.Run("during", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.MulXXTScaledPruned(a, at, nil, nil, 3, 1)
		}
	})
	b.Run("after", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.MulXXTScaledPruned(a, at, nil, nil, 0, 1).Prune(3)
		}
	})
}

// BenchmarkAblation_FactoredVsNaive compares the factored X·Xᵀ
// formulation of the degree-discounted similarity against the naive
// three-matrix product of Eqn 8.
func BenchmarkAblation_FactoredVsNaive(b *testing.B) {
	d := benchDatasets(b)
	a := d.Wiki.Graph.Adj
	opt := core.Defaults()
	opt.Threshold = 0.05
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SymmetrizeDegreeDiscounted(a, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		outDeg := a.RowCounts()
		inDeg := a.ColCounts()
		doInv := invSqrt(outDeg)
		diInv := invSqrt(inDeg)
		at := a.Transpose()
		mul := func(x, y *matrix.CSR) *matrix.CSR {
			p, _ := matrix.MulPrunedTopKCtx(context.Background(), x, y, 0, 0)
			return p
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bd := mul(mul(a.ScaleRows(doInv), matrix.Diagonal(diInv)), at.ScaleCols(doInv))
			cd := mul(mul(at.ScaleRows(diInv), matrix.Diagonal(doInv)), a.ScaleCols(diInv))
			matrix.Add(bd, cd, 1, 1).Prune(0.05)
		}
	})
}

func invSqrt(deg []int) []float64 {
	out := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			out[i] = 1 / math.Sqrt(float64(d))
		} else {
			out[i] = 1
		}
	}
	return out
}

package symcluster_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"symcluster"
)

func TestPublicPipelineEndToEnd(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 800, Topics: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	u, err := symcluster.Symmetrize(data.Graph, symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := symcluster.Cluster(u, symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.35, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 800 {
		t.Fatalf("assign len %d", len(res.Assign))
	}
	rep, err := symcluster.Evaluate(res.Assign, data.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgF <= 0.1 {
		t.Fatalf("Avg F %v too low for an easy synthetic dataset", rep.AvgF)
	}
}

func TestClusterDirectedConvenience(t *testing.T) {
	data := symcluster.Figure1()
	res, err := symcluster.ClusterDirected(data.Graph, symcluster.Bibliometric,
		symcluster.DefaultSymmetrizeOptions(), symcluster.MLRMCL,
		symcluster.ClusterOptions{Inflation: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[4] != res.Assign[5] {
		t.Fatal("bibliometric pipeline failed to co-cluster the twins")
	}
}

func TestAlgorithmsDispatch(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 300, Topics: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	u, err := symcluster.Symmetrize(data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range symcluster.Algorithms {
		var res *symcluster.Clustering
		if symcluster.AcceptsDirected(algo) {
			// The directed baselines consume the original graph; the
			// two-stage entry point routes around the symmetrization.
			res, err = symcluster.ClusterDirected(data.Graph, symcluster.AAT,
				symcluster.DefaultSymmetrizeOptions(), algo,
				symcluster.ClusterOptions{TargetClusters: 5, Seed: 4})
		} else {
			res, err = symcluster.Cluster(u, algo, symcluster.ClusterOptions{TargetClusters: 5, Seed: 4})
		}
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Assign) != 300 {
			t.Fatalf("%v: assign len %d", algo, len(res.Assign))
		}
	}
	// Every substrate except MLR-MCL requires a target.
	for _, algo := range symcluster.Algorithms {
		if !symcluster.RequiresK(algo) {
			continue
		}
		if _, err := symcluster.Cluster(u, algo, symcluster.ClusterOptions{}); err == nil {
			t.Fatalf("%v accepted zero target", algo)
		}
	}
	// A directed baseline given only the symmetrized graph must refuse.
	if _, err := symcluster.Cluster(u, symcluster.BestWCutAlgo, symcluster.ClusterOptions{TargetClusters: 5}); err == nil {
		t.Fatal("BestWCut accepted an undirected-only input")
	}
	if _, err := symcluster.Cluster(u, symcluster.Algorithm(42), symcluster.ClusterOptions{TargetClusters: 2}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestAlgorithmString(t *testing.T) {
	if symcluster.MLRMCL.String() != "MLR-MCL" || symcluster.Metis.String() != "Metis" ||
		symcluster.Graclus.String() != "Graclus" {
		t.Fatal("algorithm names wrong")
	}
	if !strings.Contains(symcluster.Algorithm(9).String(), "9") {
		t.Fatal("unknown algorithm String")
	}
}

func TestSpectralBaselines(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 400, Topics: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := symcluster.BestWCut(data.Graph, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bw.K != 5 || len(bw.Assign) != 400 {
		t.Fatalf("BestWCut K=%d len=%d", bw.K, len(bw.Assign))
	}
	zh, err := symcluster.ZhouSpectralCtx(context.Background(), data.Graph, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if zh.K != 5 || len(zh.Assign) != 400 {
		t.Fatalf("Zhou K=%d len=%d", zh.K, len(zh.Assign))
	}
}

func TestSignTestPublic(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 500, Topics: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := symcluster.ClusterDirected(data.Graph, symcluster.DegreeDiscounted,
		symcluster.DefaultSymmetrizeOptions(), symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := symcluster.ClusterDirected(data.Graph, symcluster.AAT,
		symcluster.DefaultSymmetrizeOptions(), symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	st, err := symcluster.SignTest(a.Assign, b.Assign, data.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if st.Log10P > 0 {
		t.Fatalf("log10 p = %v", st.Log10P)
	}
}

func TestNCutPublic(t *testing.T) {
	data := symcluster.Figure1()
	u, err := symcluster.Symmetrize(data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 1, 1, 0, 0}
	if _, err := symcluster.NCut(u, assign); err != nil {
		t.Fatal(err)
	}
	if _, err := symcluster.NCutDirected(data.Graph, assign, 0.05); err != nil {
		t.Fatal(err)
	}
}

func TestIORoundTripFiles(t *testing.T) {
	dir := t.TempDir()
	data := symcluster.Figure1()
	path := filepath.Join(dir, "g.edges")
	if err := symcluster.WriteEdgeListFile(path, data.Graph); err != nil {
		t.Fatal(err)
	}
	back, err := symcluster.ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 || back.M() != 8 {
		t.Fatalf("round trip N=%d M=%d", back.N(), back.M())
	}

	var buf bytes.Buffer
	if err := symcluster.WriteGroundTruth(&buf, data.Truth); err != nil {
		t.Fatal(err)
	}
	truth, err := symcluster.ReadGroundTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if truth.K != data.Truth.K {
		t.Fatalf("truth K %d vs %d", truth.K, data.Truth.K)
	}
}

func TestMatrixBinaryPublic(t *testing.T) {
	data := symcluster.Figure1()
	u, err := symcluster.Symmetrize(data.Graph, symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := symcluster.WriteMatrixBinary(&buf, u.Adj); err != nil {
		t.Fatal(err)
	}
	back, err := symcluster.ReadMatrixBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != u.Adj.NNZ() {
		t.Fatalf("nnz %d vs %d", back.NNZ(), u.Adj.NNZ())
	}
}

func TestCalibrateThresholdPublic(t *testing.T) {
	data, err := symcluster.GenerateWiki(symcluster.WikiOptions{ListClusters: 10, RecipClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	th, err := symcluster.CalibrateThreshold(data.Graph, symcluster.DefaultSymmetrizeOptions(), 25, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if th < 0 {
		t.Fatalf("threshold %v", th)
	}
}

func TestIOErrorPaths(t *testing.T) {
	if _, err := symcluster.ReadEdgeListFile("/nonexistent/file.edges"); err == nil {
		t.Fatal("accepted missing file")
	}
	if err := symcluster.WriteEdgeListFile("/nonexistent/dir/out.edges", symcluster.Figure1().Graph); err == nil {
		t.Fatal("accepted unwritable path")
	}
	if _, err := symcluster.ReadGroundTruth(strings.NewReader("bad tokens here\n")); err == nil {
		t.Fatal("accepted malformed ground truth")
	}
	if _, err := symcluster.ReadMetisGraph(strings.NewReader("")); err == nil {
		t.Fatal("accepted empty metis input")
	}
	if _, err := symcluster.ReadMatrixBinary(strings.NewReader("junk")); err == nil {
		t.Fatal("accepted junk binary matrix")
	}
	if _, err := symcluster.NewDirectedGraph(&symcluster.Matrix{Rows: 2, Cols: 3, RowPtr: make([]int64, 3)}, nil); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestMetisGraphPublicRoundTrip(t *testing.T) {
	data := symcluster.Figure1()
	u, err := symcluster.Symmetrize(data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := symcluster.WriteMetisGraph(&buf, u, 1); err != nil {
		t.Fatal(err)
	}
	back, err := symcluster.ReadMetisGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != u.N() || back.M() != u.M() {
		t.Fatalf("round trip: %d/%d vs %d/%d", back.N(), back.M(), u.N(), u.M())
	}
}

func TestPageRankPublic(t *testing.T) {
	data := symcluster.Figure1()
	pr, err := symcluster.PageRank(data.Graph, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("pagerank sum %v", sum)
	}
}

package symcluster_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symcluster"
	"symcluster/internal/graph"
)

func TestPublicPipelineEndToEnd(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 800, Topics: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u, err := symcluster.SymmetrizeCtx(ctx, data.Graph, symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := symcluster.ClusterCtx(ctx, u, symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.35, Seed: 3})
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
	res, err := symcluster.ClusterDirectedCtx(context.Background(), data.Graph, symcluster.Bibliometric,
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
	ctx := context.Background()
	u, err := symcluster.SymmetrizeCtx(ctx, data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range symcluster.Algorithms {
		var res *symcluster.Clustering
		if algo.AcceptsDirected() {
			// The directed baselines consume the original graph; the
			// two-stage entry point routes around the symmetrization.
			res, err = symcluster.ClusterDirectedCtx(ctx, data.Graph, symcluster.AAT,
				symcluster.DefaultSymmetrizeOptions(), algo,
				symcluster.ClusterOptions{TargetClusters: 5, Seed: 4})
		} else {
			res, err = symcluster.ClusterCtx(ctx, u, algo, symcluster.ClusterOptions{TargetClusters: 5, Seed: 4})
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
		if !algo.RequiresK() {
			continue
		}
		if _, err := symcluster.ClusterCtx(ctx, u, algo, symcluster.ClusterOptions{}); err == nil {
			t.Fatalf("%v accepted zero target", algo)
		}
	}
	// A directed baseline given only the symmetrized graph must refuse.
	if _, err := symcluster.ClusterCtx(ctx, u, symcluster.BestWCutAlgo, symcluster.ClusterOptions{TargetClusters: 5}); err == nil {
		t.Fatal("BestWCut accepted an undirected-only input")
	}
	if _, err := symcluster.ClusterCtx(ctx, u, symcluster.Algorithm(42), symcluster.ClusterOptions{TargetClusters: 2}); err == nil {
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

// TestSpectralBaselines: the two directed baselines run through the
// one directed entry, which hands them the graph unsymmetrized.
func TestSpectralBaselines(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 400, Topics: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []symcluster.Algorithm{symcluster.BestWCutAlgo, symcluster.ZhouAlgo} {
		res, err := symcluster.ClusterDirectedCtx(context.Background(), data.Graph, symcluster.AAT,
			symcluster.DefaultSymmetrizeOptions(), algo, symcluster.ClusterOptions{TargetClusters: 5, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.K != 5 || len(res.Assign) != 400 {
			t.Fatalf("%v K=%d len=%d", algo, res.K, len(res.Assign))
		}
	}
}

func TestSignTestPublic(t *testing.T) {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 500, Topics: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := symcluster.ClusterDirectedCtx(ctx, data.Graph, symcluster.DegreeDiscounted,
		symcluster.DefaultSymmetrizeOptions(), symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := symcluster.ClusterDirectedCtx(ctx, data.Graph, symcluster.AAT,
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

func TestIORoundTripFiles(t *testing.T) {
	dir := t.TempDir()
	data := symcluster.Figure1()
	path := filepath.Join(dir, "g.edges")
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, data.Graph); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := symcluster.ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 || back.M() != 8 {
		t.Fatalf("round trip N=%d M=%d", back.N(), back.M())
	}

	truth, err := symcluster.ReadGroundTruth(strings.NewReader("0\n0\n1\n1\n2\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if truth.K != data.Truth.K {
		t.Fatalf("truth K %d vs %d", truth.K, data.Truth.K)
	}
}

func TestCalibrateThresholdPublic(t *testing.T) {
	data, err := symcluster.GenerateWiki(symcluster.WikiOptions{ListClusters: 10, RecipClusters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	th, err := symcluster.CalibrateThresholdCtx(context.Background(), data.Graph, symcluster.DefaultSymmetrizeOptions(), 25, 100, 7)
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
	if _, err := symcluster.ReadGroundTruth(strings.NewReader("bad tokens here\n")); err == nil {
		t.Fatal("accepted malformed ground truth")
	}
	if _, err := symcluster.NewDirectedGraph(&symcluster.Matrix{Rows: 2, Cols: 3, RowPtr: make([]int64, 3)}, nil); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestWriteMetisGraphPublic(t *testing.T) {
	data := symcluster.Figure1()
	u, err := symcluster.SymmetrizeCtx(context.Background(), data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := symcluster.WriteMetisGraph(&buf, u, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := fmt.Sprintf("%d %d", u.N(), u.M()); len(lines) != 2+u.N() || lines[1] != want {
		t.Fatalf("header %q and %d vertex lines, want %q and %d", lines[1], len(lines)-2, want, u.N())
	}
}

func TestPageRankPublic(t *testing.T) {
	data := symcluster.Figure1()
	pr, err := symcluster.PageRankCtx(context.Background(), data.Graph, 0.05)
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

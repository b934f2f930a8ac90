package symcluster_test

import (
	"context"
	"fmt"
	"testing"

	"symcluster"
)

// TestFrameworkMatrix exercises the paper's central flexibility claim
// (§3: "whichever be the suitable graph clustering algorithm, it will
// fit in our framework"): every symmetrization composes with every
// clustering substrate, on every quality dataset, producing a valid
// clustering with a sane F-score.
func TestFrameworkMatrix(t *testing.T) {
	datasets := map[string]*symcluster.Dataset{}
	cit, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 900, Topics: 12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	datasets["citation"] = cit
	wiki, err := symcluster.GenerateWiki(symcluster.WikiOptions{ListClusters: 12, RecipClusters: 12, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	datasets["wiki"] = wiki

	for dsName, ds := range datasets {
		for _, method := range symcluster.Methods {
			opt := symcluster.DefaultSymmetrizeOptions()
			if method == symcluster.DegreeDiscounted || method == symcluster.Bibliometric {
				opt.Threshold = 0.01
				if method == symcluster.Bibliometric {
					opt.Threshold = 1
				}
			}
			u, err := symcluster.SymmetrizeCtx(context.Background(), ds.Graph, method, opt)
			if err != nil {
				t.Fatalf("%s/%v: symmetrize: %v", dsName, method, err)
			}
			for _, algo := range symcluster.Algorithms {
				if algo.AcceptsDirected() {
					// The directed baselines ignore the symmetrized
					// graph entirely; they are exercised once per
					// dataset in TestSpectralBaselinesOnFrameworkData
					// rather than once per method here.
					continue
				}
				name := fmt.Sprintf("%s/%v/%v", dsName, method, algo)
				t.Run(name, func(t *testing.T) {
					res, err := symcluster.ClusterCtx(context.Background(), u, algo, symcluster.ClusterOptions{
						TargetClusters: ds.Truth.K,
						Seed:           23,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Assign) != ds.Graph.N() {
						t.Fatalf("assign len %d, want %d", len(res.Assign), ds.Graph.N())
					}
					for _, c := range res.Assign {
						if c < 0 || c >= res.K {
							t.Fatalf("cluster id %d outside [0,%d)", c, res.K)
						}
					}
					rep, err := symcluster.Evaluate(res.Assign, ds.Truth)
					if err != nil {
						t.Fatal(err)
					}
					// Any sane combination scores far above the ~1/K
					// random baseline on these planted datasets.
					if rep.AvgF < 0.10 {
						t.Fatalf("Avg F %.3f below sanity floor", rep.AvgF)
					}
				})
			}
		}
	}
}

// TestSpectralBaselinesOnFrameworkData confirms the directed spectral
// baselines also run end-to-end on the same data (they bypass the
// symmetrization stage).
func TestSpectralBaselinesOnFrameworkData(t *testing.T) {
	cit, err := symcluster.GenerateCitation(symcluster.CitationOptions{Nodes: 500, Topics: 8, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for name, algo := range map[string]symcluster.Algorithm{"bestwcut": symcluster.BestWCutAlgo, "zhou": symcluster.ZhouAlgo} {
		res, err := symcluster.ClusterDirectedCtx(context.Background(), cit.Graph, symcluster.AAT,
			symcluster.DefaultSymmetrizeOptions(), algo, symcluster.ClusterOptions{TargetClusters: 8, Seed: 24})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := symcluster.Evaluate(res.Assign, cit.Truth)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AvgF < 0.10 {
			t.Fatalf("%s: Avg F %.3f below sanity floor", name, rep.AvgF)
		}
	}
}

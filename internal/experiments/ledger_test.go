package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/pipeline"
)

// ledgerTolF is the avg-F tolerance of a ledger pin (avg-F as a
// fraction, so half a point). The cluster count is pinned exactly.
const ledgerTolF = 0.005

// ledgerCell is one pinned quality number: the clustering a substrate
// finds at the truth's K on one symmetrization of one substitute.
type ledgerCell struct {
	dataset string
	method  core.Method
	algo    Algo
	k       int
	avgF    float64
}

// ledger pins every (substitute, method, substrate) cell of the small
// citation and wiki substitutes at seed 1, each method under the
// experiments' options (symOptionsFor) and each substrate asked for the
// truth's K (clusterWith).
var ledger = []ledgerCell{
	{"cora", core.DegreeDiscounted, AlgoMLRMCL, 136, 0.4992},
	{"cora", core.DegreeDiscounted, AlgoGraclus, 35, 0.7602},
	{"cora", core.DegreeDiscounted, AlgoMetis, 35, 0.6206},
	{"cora", core.Bibliometric, AlgoMLRMCL, 62, 0.7804},
	{"cora", core.Bibliometric, AlgoGraclus, 35, 0.7445},
	{"cora", core.Bibliometric, AlgoMetis, 35, 0.5751},
	{"cora", core.AAT, AlgoMLRMCL, 529, 0.2002},
	{"cora", core.AAT, AlgoGraclus, 35, 0.8152},
	{"cora", core.AAT, AlgoMetis, 35, 0.5224},
	{"cora", core.RandomWalk, AlgoMLRMCL, 96, 0.4214},
	{"cora", core.RandomWalk, AlgoGraclus, 35, 0.7549},
	{"cora", core.RandomWalk, AlgoMetis, 35, 0.3106},
	{"wiki", core.DegreeDiscounted, AlgoMLRMCL, 196, 0.7683},
	{"wiki", core.DegreeDiscounted, AlgoGraclus, 84, 0.7792},
	{"wiki", core.DegreeDiscounted, AlgoMetis, 84, 0.8026},
	{"wiki", core.Bibliometric, AlgoMLRMCL, 148, 0.7613},
	{"wiki", core.Bibliometric, AlgoGraclus, 84, 0.6637},
	{"wiki", core.Bibliometric, AlgoMetis, 84, 0.6381},
	{"wiki", core.AAT, AlgoMLRMCL, 318, 0.5419},
	{"wiki", core.AAT, AlgoGraclus, 84, 0.6423},
	{"wiki", core.AAT, AlgoMetis, 84, 0.6259},
	{"wiki", core.RandomWalk, AlgoMLRMCL, 69, 0.4024},
	{"wiki", core.RandomWalk, AlgoGraclus, 84, 0.5925},
	{"wiki", core.RandomWalk, AlgoMetis, 84, 0.5896},
}

// TestQualityLedger runs the ledger's cells and holds each to its pin:
// a change that moves a cluster count or shifts avg-F by more than
// ledgerTolF on either substitute shows here, cell by cell, in
// seconds.
func TestQualityLedger(t *testing.T) {
	start := time.Now()
	d := datasets(t)
	pins := make(map[string]ledgerCell, len(ledger))
	for _, c := range ledger {
		pins[fmt.Sprintf("%s/%v/%v", c.dataset, c.method, c.algo)] = c
	}
	cells := 0
	for _, ds := range []*gen.Dataset{d.Cora, d.Wiki} {
		for _, m := range pipeline.Methods() {
			u, err := core.SymmetrizeCtx(context.Background(), ds.Graph, m, symOptionsFor(m, ds))
			if err != nil {
				t.Fatalf("%s/%v: %v", ds.Name, m, err)
			}
			for _, algo := range []Algo{AlgoMLRMCL, AlgoGraclus, AlgoMetis} {
				name := fmt.Sprintf("%s/%v/%v", ds.Name, m, algo)
				res, err := clusterWith(context.Background(), u, algo, ds.Truth.K, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rep, err := eval.Evaluate(res.Assign, ds.Truth)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cells++
				pin, ok := pins[name]
				if !ok {
					t.Errorf("%s: no pin; measured K %d, avg-F %.4f", name, res.K, rep.AvgF)
					continue
				}
				if res.K != pin.k || math.Abs(rep.AvgF-pin.avgF) > ledgerTolF {
					t.Errorf("%s: K %d, avg-F %.4f; pinned K %d, avg-F %.4f ± %v", name, res.K, rep.AvgF, pin.k, pin.avgF, ledgerTolF)
				}
			}
		}
	}
	if cells != len(ledger) {
		t.Errorf("ran %d cells, ledger pins %d", cells, len(ledger))
	}
	t.Logf("%d cells in %v", cells, time.Since(start))
}

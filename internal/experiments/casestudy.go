package experiments

import (
	"context"
	"fmt"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/mcl"
	"symcluster/internal/pipeline"
)

// SignTestRow is one comparison of §5.6.
type SignTestRow struct {
	Dataset     string
	Comparison  string // e.g. "DegreeDiscounted vs A+A' (MLR-MCL)"
	NAOnly      int    // nodes correct only under the first clustering
	NBOnly      int
	Log10PValue float64
}

// SignTests reproduces the §5.6 significance analysis: the paired
// binomial sign test between the Degree-discounted clustering and the
// A+Aᵀ clustering on Cora and Wiki (MLR-MCL as the clusterer).
func SignTests(ctx context.Context, cora, wiki *gen.Dataset, seed int64) ([]SignTestRow, error) {
	var rows []SignTestRow
	for _, ds := range []*gen.Dataset{cora, wiki} {
		assigns := map[core.Method][]int{}
		for _, m := range []core.Method{core.DegreeDiscounted, core.AAT} {
			u, err := core.SymmetrizeCtx(ctx, ds.Graph, m, symOptionsFor(m, ds))
			if err != nil {
				return nil, fmt.Errorf("experiments: signtest %s/%v: %w", ds.Name, m, err)
			}
			// Compare at the peak-F granularity of the Figure 5/7
			// sweeps (low inflation), not at an arbitrary target: the
			// sign test is about the best clustering each
			// symmetrization can offer.
			res, err := clusterAtInflation(ctx, u, 1.35, seed)
			if err != nil {
				return nil, err
			}
			assigns[m] = res.Assign
		}
		ca, err := eval.CorrectNodes(assigns[core.DegreeDiscounted], ds.Truth)
		if err != nil {
			return nil, err
		}
		cb, err := eval.CorrectNodes(assigns[core.AAT], ds.Truth)
		if err != nil {
			return nil, err
		}
		st, err := eval.SignTest(ca, cb)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SignTestRow{
			Dataset:     ds.Name,
			Comparison:  "DegreeDiscounted vs A+A' (MLR-MCL)",
			NAOnly:      st.NAOnly,
			NBOnly:      st.NBOnly,
			Log10PValue: st.Log10P,
		})
	}
	return rows, nil
}

// CaseStudyResult reports whether each symmetrization can recover the
// Figure-1 / Guzmania list pattern: members that share links but never
// interlink.
type CaseStudyResult struct {
	Method core.Method
	// TwinsConnected: do the Figure-1 twins (nodes 4, 5) share an edge
	// in the symmetrized graph?
	TwinsConnected bool
	// TwinsClustered: does MLR-MCL place them in one cluster?
	TwinsClustered bool
	// ListRecallPct is the fraction (in %) of Wiki list-cluster member
	// pairs that end up in the same cluster (the §5.7 pattern at
	// scale).
	ListRecallPct float64
}

// CaseStudy reproduces §5.7 and Figure 1: the idealised twin example
// plus the list-pattern clusters of the Wiki graph, showing which
// symmetrizations recover them.
func CaseStudy(ctx context.Context, wiki *gen.Dataset, seed int64) ([]CaseStudyResult, error) {
	fig1 := gen.Figure1()
	var out []CaseStudyResult
	for _, m := range pipeline.Methods() {
		r := CaseStudyResult{Method: m}

		u1, err := core.SymmetrizeCtx(ctx, fig1.Graph, m, core.Defaults())
		if err != nil {
			return nil, fmt.Errorf("experiments: casestudy %v: %w", m, err)
		}
		r.TwinsConnected = u1.Adj.At(4, 5) > 0
		res, err := mcl.ClusterCtx(ctx, u1.Adj, mcl.Options{Inflation: 2, Seed: seed})
		if err != nil {
			return nil, err
		}
		r.TwinsClustered = res.Assign[4] == res.Assign[5]

		// Wiki list-pattern recall under MLR-MCL.
		uw, err := core.SymmetrizeCtx(ctx, wiki.Graph, m, symOptionsFor(m, wiki))
		if err != nil {
			return nil, err
		}
		resW, err := clusterWith(ctx, uw, AlgoMLRMCL, wiki.Truth.K, seed)
		if err != nil {
			return nil, err
		}
		r.ListRecallPct = 100 * listPairRecall(wiki, resW.Assign)
		out = append(out, r)
	}
	return out, nil
}

// listPairRecall returns the fraction of same-list-cluster member
// pairs that the clustering keeps together, sampled over consecutive
// member pairs for linear cost.
func listPairRecall(wiki *gen.Dataset, assign []int) float64 {
	// Members are identified by label prefix "List:<c>:Member:".
	byCluster := map[string][]int{}
	for i, l := range wiki.Graph.Labels {
		var c, m int
		if n, _ := fmt.Sscanf(l, "List:%d:Member:%d", &c, &m); n == 2 {
			key := fmt.Sprintf("%d", c)
			byCluster[key] = append(byCluster[key], i)
		}
	}
	together, total := 0, 0
	for _, members := range byCluster {
		for i := 1; i < len(members); i++ {
			total++
			if assign[members[i-1]] == assign[members[i]] {
				together++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(together) / float64(total)
}

// SpamProbeResult reports how much a planted link farm pollutes the
// top-weighted edges of each symmetrization — the paper's future-work
// question about spam and link fraud (§6).
type SpamProbeResult struct {
	Method core.Method
	// SpamAmongTop is how many of the top-20 weighted edges touch a
	// spam node.
	SpamAmongTop int
}

// SpamProbe injects a link farm (a clique of spam pages that all link
// to one promoted page and to each other) into the Wiki graph and
// counts spam edges among each symmetrization's heaviest edges.
// Degree-discounting bounds the farm's influence; Bibliometric is
// dominated by it.
func SpamProbe(ctx context.Context, wiki *gen.Dataset, farmSize int) ([]SpamProbeResult, error) {
	if farmSize <= 0 {
		// The farm must be large enough that its pairwise shared-link
		// counts rival the graph's heaviest organic similarities —
		// real link farms are built to whatever size it takes.
		farmSize = 120
	}
	spammed, spamStart, err := injectLinkFarm(wiki, farmSize)
	if err != nil {
		return nil, err
	}
	var out []SpamProbeResult
	for _, m := range []core.Method{core.Bibliometric, core.DegreeDiscounted} {
		u, err := core.SymmetrizeCtx(ctx, spammed.Graph, m, core.Defaults())
		if err != nil {
			return nil, fmt.Errorf("experiments: spam probe %v: %w", m, err)
		}
		top := u.TopEdges(20)
		spam := 0
		for _, e := range top {
			if e.U >= spamStart || e.V >= spamStart {
				spam++
			}
		}
		out = append(out, SpamProbeResult{Method: m, SpamAmongTop: spam})
	}
	return out, nil
}

func injectLinkFarm(wiki *gen.Dataset, farmSize int) (*gen.Dataset, int, error) {
	g := wiki.Graph
	n := g.N()
	total := n + farmSize + 1 // farm pages + promoted page
	promoted := n
	b := newBuilderFrom(g, total)
	for i := 0; i < farmSize; i++ {
		page := n + 1 + i
		b.Add(page, promoted, 1)
		for j := 0; j < farmSize; j++ {
			if other := n + 1 + j; other != page {
				b.Add(page, other, 1)
			}
		}
	}
	labels := append(append([]string(nil), g.Labels...), "Spam:Promoted")
	for i := 0; i < farmSize; i++ {
		labels = append(labels, fmt.Sprintf("Spam:Farm:%d", i))
	}
	ng, err := newDirected(b, labels)
	if err != nil {
		return nil, 0, err
	}
	return &gen.Dataset{Name: wiki.Name + "+spam", Graph: ng}, n, nil
}

package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

// Showcase reproduces the paper's Figure 10 narrative: pick one
// genus-less list-pattern cluster of the Wiki graph (the Guzmania
// analogue — members that never link to one another), cluster the
// degree-discounted symmetrization, and report the recovered cluster
// together with the pages its members commonly point to and are
// pointed to by. Also reports whether A+Aᵀ's clustering kept the same
// members together, which in the paper it does not.
type Showcase struct {
	// Cluster is the ground-truth list-cluster label prefix shown.
	Cluster string
	// Members lists the cluster's member labels.
	Members []string
	// SharedOut lists pages every member points to.
	SharedOut []string
	// SharedIn lists pages pointing to every member.
	SharedIn []string
	// DDRecovered is the fraction of members the degree-discounted
	// clustering keeps in one output cluster.
	DDRecovered float64
	// AATRecovered is the same fraction under A+Aᵀ.
	AATRecovered float64
	// IntraEdges counts directed edges among the members (0 for a pure
	// list pattern).
	IntraEdges int
}

// RunShowcase builds the showcase for the first sufficiently large
// genus-less list cluster.
func RunShowcase(ctx context.Context, wiki *gen.Dataset, seed int64) (*Showcase, error) {
	g := wiki.Graph
	// Group list-cluster members by cluster id; keep only clusters
	// without a genus page.
	members := map[int][]int{}
	hasGenus := map[int]bool{}
	for i, l := range g.Labels {
		var c, m int
		if n, _ := fmt.Sscanf(l, "List:%d:Member:%d", &c, &m); n == 2 {
			members[c] = append(members[c], i)
		} else if n, _ := fmt.Sscanf(l, "List:%d:Genus", &c); n == 1 && strings.HasSuffix(l, "Genus") {
			hasGenus[c] = true
		}
	}
	best := -1
	for c, ms := range members {
		if hasGenus[c] {
			continue
		}
		if best == -1 || len(ms) > len(members[best]) {
			best = c
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("experiments: no genus-less list cluster in the wiki graph")
	}
	ms := members[best]
	sort.Ints(ms)

	sc := &Showcase{Cluster: fmt.Sprintf("List:%d", best)}
	for _, m := range ms {
		sc.Members = append(sc.Members, g.Label(m))
	}
	// Shared out-links: intersection of the members' out-neighbour
	// sets; shared in-links via the transpose.
	sc.SharedOut = sharedNeighbours(wiki, ms, false)
	sc.SharedIn = sharedNeighbours(wiki, ms, true)
	for _, u := range ms {
		for _, v := range ms {
			if u != v && g.Adj.At(u, v) != 0 {
				sc.IntraEdges++
			}
		}
	}

	// Cluster with dd and with A+Aᵀ, measure member cohesion.
	for _, m := range []core.Method{core.DegreeDiscounted, core.AAT} {
		u, err := core.SymmetrizeCtx(ctx, g, m, symOptionsFor(m, wiki))
		if err != nil {
			return nil, err
		}
		res, err := clusterWith(ctx, u, AlgoMLRMCL, wiki.Truth.K, seed)
		if err != nil {
			return nil, err
		}
		counts := map[int]int{}
		for _, node := range ms {
			counts[res.Assign[node]]++
		}
		bestCount := 0
		for _, c := range counts {
			if c > bestCount {
				bestCount = c
			}
		}
		frac := float64(bestCount) / float64(len(ms))
		if m == core.DegreeDiscounted {
			sc.DDRecovered = frac
		} else {
			sc.AATRecovered = frac
		}
	}
	return sc, nil
}

// sharedNeighbours returns labels of nodes adjacent to EVERY member —
// out-neighbours when transpose is false, in-neighbours when true.
func sharedNeighbours(wiki *gen.Dataset, members []int, transpose bool) []string {
	adj := wiki.Graph.Adj
	if transpose {
		adj = adj.Transpose()
	}
	counts := map[int32]int{}
	for _, m := range members {
		cols, _ := adj.Row(m)
		for _, c := range cols {
			counts[c]++
		}
	}
	var shared []int
	for c, n := range counts {
		if n == len(members) {
			shared = append(shared, int(c))
		}
	}
	sort.Ints(shared)
	labels := make([]string, len(shared))
	for i, c := range shared {
		labels[i] = wiki.Graph.Label(c)
	}
	return labels
}

// FormatShowcase renders the showcase like the paper's §5.7 narrative.
func FormatShowcase(sc *Showcase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Case study (Figure 10 analogue): cluster %s\n", sc.Cluster)
	fmt.Fprintf(&b, "%d members, %d direct edges among them (the Guzmania pattern)\n",
		len(sc.Members), sc.IntraEdges)
	fmt.Fprintf(&b, "members: %s\n", strings.Join(headOf(sc.Members, 6), ", "))
	fmt.Fprintf(&b, "every member points to:       %s\n", strings.Join(sc.SharedOut, ", "))
	fmt.Fprintf(&b, "every member is pointed to by: %s\n", strings.Join(sc.SharedIn, ", "))
	fmt.Fprintf(&b, "recovered in one cluster: DegreeDiscounted %.0f%%, A+A' %.0f%%\n",
		100*sc.DDRecovered, 100*sc.AATRecovered)
	return b.String()
}

func headOf(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := append([]string(nil), xs[:n]...)
	return append(out, fmt.Sprintf("… (+%d more)", len(xs)-n))
}

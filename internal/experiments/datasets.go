// Package experiments regenerates every table and figure of the
// paper's evaluation section (§4–§5) on the synthetic dataset
// substitutes. Each experiment is a function returning structured rows,
// and each tabular result has one builder turning them into a Table,
// which cmd/experiments prints and writes as CSV. The per-experiment
// index lives in DESIGN.md §4.
package experiments

import (
	"fmt"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

// Scale selects dataset sizes. Small keeps every experiment fast
// enough for tests and benchmarks; Paper approaches the structure of
// the original datasets (scaled to laptop-feasible node counts).
type Scale int

const (
	// Small is for tests, benchmarks and quick runs (seconds).
	Small Scale = iota
	// Paper is for full experiment reproduction (minutes).
	Paper
)

// String names the scale.
func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "small"
}

// Datasets bundles the four dataset substitutes.
type Datasets struct {
	Cora        *gen.Dataset // quality, small scale (Cora substitute)
	Wiki        *gen.Dataset // quality + hubs, larger (Wikipedia substitute)
	Flickr      *gen.Dataset // scalability only (Flickr substitute)
	LiveJournal *gen.Dataset // scalability only (LiveJournal substitute)
}

// Load generates all four datasets at the given scale,
// deterministically for a seed.
func Load(scale Scale, seed int64) (*Datasets, error) {
	var d Datasets
	var err error
	switch scale {
	case Paper:
		d.Cora, err = gen.Citation(gen.CitationOptions{Nodes: 17604, Topics: 70, Seed: seed})
		if err == nil {
			d.Wiki, err = gen.Wiki(gen.WikiOptions{
				ListClusters: 250, RecipClusters: 250, Seed: seed + 1,
			})
		}
		if err == nil {
			d.Flickr, err = gen.Kronecker(gen.KroneckerOptions{Scale: 15, EdgeFactor: 12, Reciprocity: 0.62, Seed: seed + 2})
		}
		if err == nil {
			d.LiveJournal, err = gen.Kronecker(gen.KroneckerOptions{Scale: 16, EdgeFactor: 14, Reciprocity: 0.73, Seed: seed + 3})
		}
	default:
		d.Cora, err = gen.Citation(gen.CitationOptions{Nodes: 2500, Topics: 35, Seed: seed})
		if err == nil {
			d.Wiki, err = gen.Wiki(gen.WikiOptions{
				ListClusters: 40, RecipClusters: 40, Seed: seed + 1,
			})
		}
		if err == nil {
			d.Flickr, err = gen.Kronecker(gen.KroneckerOptions{Scale: 11, EdgeFactor: 10, Reciprocity: 0.62, Seed: seed + 2})
		}
		if err == nil {
			d.LiveJournal, err = gen.Kronecker(gen.KroneckerOptions{Scale: 12, EdgeFactor: 12, Reciprocity: 0.73, Seed: seed + 3})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: generating datasets: %w", err)
	}
	// Name the datasets by the substituted-for originals so tables read
	// like the paper's.
	d.Cora.Name = "cora"
	d.Wiki.Name = "wiki"
	d.Flickr.Name = "flickr"
	d.LiveJournal.Name = "livejournal"
	return &d, nil
}

// symOptionsFor returns the symmetrization options used throughout the
// experiments: the paper's α = β = 0.5 with a dataset-appropriate
// prune threshold for the product methods. Mirroring Table 2, the Cora
// substitute is never pruned (the paper uses threshold 0 there); the
// hub-heavy and large datasets are.
func symOptionsFor(method core.Method, ds *gen.Dataset) core.Options {
	opt := core.Defaults()
	if ds.Name == "cora" || ds.Name == "citation" {
		return opt
	}
	n := ds.Graph.N()
	if method == core.Bibliometric {
		// Integer shared-link-count threshold: keep pairs sharing at
		// least two links. Without a threshold the product graph is two
		// orders denser than A+Aᵀ (Table 2); with it, hub-adjacent rows
		// survive while ordinary rows empty out — the singleton problem
		// of §5.3.
		opt.Threshold = 2
		if n > 5000 {
			opt.Threshold = 3
		}
	} else if method == core.DegreeDiscounted {
		// Degree-discounted weights concentrate around
		// 1/(√d_o·√d_o'·√d_i); the thresholds below cut hub-mediated
		// pairs while keeping cluster-internal similarities, mirroring
		// the paper's 0.01–0.025 band at its dataset sizes. The
		// scalability substitutes (R-MAT) have weaker shared-link
		// structure, so they get a gentler threshold to avoid
		// degenerating into singletons.
		opt.Threshold = 0.05
		if ds.Name == "flickr" || ds.Name == "livejournal" || ds.Name == "kronecker" {
			opt.Threshold = 0.02
		}
		if n > 5000 {
			opt.Threshold /= 2
		}
	}
	return opt
}

// ClusterSweep returns the cluster-count sweep for a dataset size:
// the paper sweeps 20–140 on Cora and thousands on Wikipedia; the
// synthetic substitutes sweep proportionally around their true
// category counts.
func ClusterSweep(trueCategories, points int) []int {
	if trueCategories < 4 {
		trueCategories = 4
	}
	if points < 2 {
		points = 2
	}
	lo := trueCategories / 3
	if lo < 2 {
		lo = 2
	}
	hi := trueCategories * 2
	out := make([]int, points)
	for i := range out {
		out[i] = lo + (hi-lo)*i/(points-1)
	}
	return out
}

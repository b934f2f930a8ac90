package symcluster

import (
	"fmt"
	"io"
	"os"

	"symcluster/internal/eval"
	"symcluster/internal/graph"
)

// ErrInputTooLarge marks inputs rejected for size rather than syntax,
// such as a single edge-list line exceeding the parser's buffer.
// Servers should map it to 413 rather than 400; test with errors.Is.
var ErrInputTooLarge = graph.ErrInputTooLarge

// ReadEdgeListFile reads a directed graph from an edge-list file ("src
// dst [weight]" per line, '#' comments). Weights must be finite and
// non-negative; oversized lines fail with ErrInputTooLarge.
func ReadEdgeListFile(path string) (*DirectedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("symcluster: %w", err)
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// WriteMetisGraph writes a symmetrized graph in the METIS graph format
// so it can be fed to the original metis/gpmetis binaries. Real-valued
// weights are scaled by weightScale and rounded to integers.
func WriteMetisGraph(w io.Writer, u *UndirectedGraph, weightScale float64) error {
	return graph.WriteMetisGraph(w, u, weightScale)
}

// ReadGroundTruth parses overlapping per-node categories (one line per
// node, space-separated category ids, blank line = unlabelled).
func ReadGroundTruth(r io.Reader) (*GroundTruth, error) {
	cats, err := graph.ReadGroundTruth(r)
	if err != nil {
		return nil, err
	}
	return NewGroundTruth(cats)
}

// NewGroundTruth wraps per-node category lists, inferring the number
// of categories.
func NewGroundTruth(categories [][]int) (*GroundTruth, error) {
	return eval.NewGroundTruth(categories)
}

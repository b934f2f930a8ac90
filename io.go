package symcluster

import (
	"fmt"
	"io"
	"os"

	"symcluster/internal/csr"
	"symcluster/internal/eval"
	"symcluster/internal/graph"
)

// ErrInputTooLarge marks inputs rejected for size rather than syntax,
// such as a single edge-list line exceeding the parser's buffer.
// Servers should map it to 413 rather than 400; test with errors.Is.
var ErrInputTooLarge = graph.ErrInputTooLarge

// ReadEdgeList parses a directed graph from the edge-list text format
// ("src dst [weight]" per line, '#' comments). Weights must be finite
// and non-negative; oversized lines fail with ErrInputTooLarge.
func ReadEdgeList(r io.Reader) (*DirectedGraph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes a directed graph in edge-list format.
func WriteEdgeList(w io.Writer, g *DirectedGraph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeListFile reads an edge-list file from disk.
func ReadEdgeListFile(path string) (*DirectedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("symcluster: %w", err)
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// WriteEdgeListFile writes a directed graph to an edge-list file.
func WriteEdgeListFile(path string, g *DirectedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("symcluster: %w", err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetisGraph writes a symmetrized graph in the METIS graph format
// so it can be fed to the original metis/gpmetis binaries. Real-valued
// weights are scaled by weightScale and rounded to integers.
func WriteMetisGraph(w io.Writer, u *UndirectedGraph, weightScale float64) error {
	return graph.WriteMetisGraph(w, u, weightScale)
}

// ReadMetisGraph parses a METIS-format undirected graph.
func ReadMetisGraph(r io.Reader) (*UndirectedGraph, error) {
	return graph.ReadMetisGraph(r)
}

// WriteMatrixBinary serialises a sparse matrix (for example an
// expensive symmetrization product) in the library's one binary CSR
// format: the CRC-framed image symclusterd stores graphs in on disk.
func WriteMatrixBinary(w io.Writer, m *Matrix) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("symcluster: %w", err)
	}
	_, err := w.Write(csr.Encode(m))
	return err
}

// ReadMatrixBinary deserialises a matrix written by WriteMatrixBinary,
// verifying its checksums and structure.
func ReadMatrixBinary(r io.Reader) (*Matrix, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("symcluster: %w", err)
	}
	return csr.Decode(data)
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

// WriteGroundTruth writes the format ReadGroundTruth parses.
func WriteGroundTruth(w io.Writer, truth *GroundTruth) error {
	return graph.WriteGroundTruth(w, truth.Categories)
}

// NewGroundTruth wraps per-node category lists, inferring the number
// of categories.
func NewGroundTruth(categories [][]int) (*GroundTruth, error) {
	return eval.NewGroundTruth(categories)
}

package csr

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"

	"symcluster/internal/faultinject"
	"symcluster/internal/graph"
	"symcluster/internal/obs"
)

// IngestInfo summarizes a finished ingestion.
type IngestInfo struct {
	Rows        int   // node count (max id + 1)
	NNZ         int64 // distinct edges after duplicate summing
	Edges       int64 // raw edge records parsed
	BytesIn     int64 // input bytes consumed
	SpillRuns   int64
	MergedBytes int64
}

// Ingester builds a binary CSR file from an edge-list text stream
// delivered in arbitrary chunks, in bounded memory. Parsing shares
// graph.ParseEdgeLine with ReadEdgeList, so the accepted grammar —
// comments, blank lines, optional weights, id and weight validation —
// is identical. Parsed edges go through an external sorter; Finalize
// merges the runs, sums duplicate coordinates in input order (dropping
// exact-zero sums, as the in-memory builder does), and streams the
// result through a Writer.
type Ingester struct {
	// SpareRows is graph.CheckIDBudget's allowance, held at Finalize — a
	// later record may yet pay for an early id. NewIngester spares every
	// row an id can name; a caller with a byte budget lowers it.
	SpareRows int64

	dir     string // scratch dir owning the spill runs
	sorter  *extSorter
	partial []byte // carried bytes of an incomplete trailing line
	lineNo  int
	maxID   int
	records int64
	bytesIn int64
	done    bool
}

// NewIngester creates an ingester spilling under scratchDir (a fresh
// subdirectory is created) with roughly memBudgetBytes of buffered
// edges.
func NewIngester(scratchDir string, memBudgetBytes int64) (*Ingester, error) {
	dir, err := os.MkdirTemp(scratchDir, "ingest-*")
	if err != nil {
		return nil, fmt.Errorf("csr: creating spill dir: %w", err)
	}
	return &Ingester{SpareRows: math.MaxInt32, dir: dir, sorter: newExtSorter(dir, memBudgetBytes)}, nil
}

// Append consumes one chunk of edge-list text. Chunks may split lines
// at any byte; the trailing partial line is carried into the next
// chunk.
func (in *Ingester) Append(chunk []byte) error {
	if in.done {
		return fmt.Errorf("csr: Append after Finalize")
	}
	in.bytesIn += int64(len(chunk))
	for len(chunk) > 0 {
		nl := bytes.IndexByte(chunk, '\n')
		if nl < 0 {
			in.partial = append(in.partial, chunk...)
			if len(in.partial) > graph.MaxLineBytes {
				return fmt.Errorf("csr: line %d longer than %d bytes", in.lineNo+1, graph.MaxLineBytes)
			}
			return nil
		}
		line := chunk[:nl]
		chunk = chunk[nl+1:]
		if len(in.partial) > 0 {
			line = append(in.partial, line...)
			in.partial = in.partial[:0]
		}
		if err := in.line(line); err != nil {
			return err
		}
	}
	return nil
}

// line parses and buffers one complete input line.
func (in *Ingester) line(raw []byte) error {
	in.lineNo++
	u, v, w, skip, err := graph.ParseEdgeLine(in.lineNo, raw)
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	if u > in.maxID {
		in.maxID = u
	}
	if v > in.maxID {
		in.maxID = v
	}
	in.records++
	// Fail fast on absurdly sparse id spaces instead of discovering it
	// at Finalize after gigabytes of spill.
	if err := graph.CheckIDDensity(in.maxID, in.records); err != nil {
		return err
	}
	return in.sorter.add(triplet{r: int32(u), c: int32(v), v: w})
}

// Finalize flushes the trailing line, merges the spill runs and writes
// the binary CSR file at dstPath (tmp + fsync + rename). The ingester
// cannot be used afterwards; its scratch directory is removed.
func (in *Ingester) Finalize(ctx context.Context, dstPath string) (info *IngestInfo, err error) {
	if in.done {
		return nil, fmt.Errorf("csr: double Finalize")
	}
	_, sp := obs.StartSpan(ctx, "csr.ingest.merge", obs.A("edges", in.records))
	defer func() {
		sp.EndErr(err)
		in.Abort() // idempotent scratch cleanup
	}()
	in.done = true
	if err := faultinject.Fire("csr.ingest"); err != nil {
		return nil, fmt.Errorf("csr: ingest: %w", err)
	}
	if len(in.partial) > 0 {
		line := in.partial
		in.partial = nil
		in.done = false
		lerr := in.line(line)
		in.done = true
		if lerr != nil {
			return nil, lerr
		}
	}
	if in.records == 0 {
		return nil, fmt.Errorf("csr: no edges in input")
	}
	if err := graph.CheckIDBudget(in.maxID, in.records, in.SpareRows); err != nil {
		return nil, err
	}
	rows := in.maxID + 1

	// Pass 1: count surviving entries so the Writer can lay the file out.
	var nnz int64
	if err := in.sorter.eachSummed(func(triplet) error { nnz++; return nil }); err != nil {
		return nil, err
	}
	// Pass 2: stream the merged entries into the file.
	w, err := NewWriter(dstPath, rows, rows, nnz)
	if err != nil {
		return nil, err
	}
	if err := in.sorter.eachSummed(func(t triplet) error {
		return w.Append(int(t.r), t.c, t.v)
	}); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(ctx); err != nil {
		return nil, err
	}
	spills, merged := in.sorter.stats()
	sp.SetAttr("rows", rows)
	sp.SetAttr("nnz", nnz)
	sp.SetAttr("spill_runs", spills)
	sp.SetAttr("merged_bytes", merged)
	return &IngestInfo{
		Rows:        rows,
		NNZ:         nnz,
		Edges:       in.records,
		BytesIn:     in.bytesIn,
		SpillRuns:   spills,
		MergedBytes: merged,
	}, nil
}

// Abort discards all ingester state, including the scratch directory.
// Safe to call after Finalize or repeatedly.
func (in *Ingester) Abort() {
	in.done = true
	if in.sorter != nil {
		in.sorter.cleanup()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
		in.dir = ""
	}
}

// Stats exposes running ingest counters (bytes consumed, edge records
// parsed) for progress reporting while the upload is still open.
func (in *Ingester) Stats() (bytesIn, edges int64) { return in.bytesIn, in.records }

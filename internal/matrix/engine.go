package matrix

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"symcluster/internal/obs"
)

// The sparse-product engine. Every production product in the library —
// the scaled, pruned self-products of symmetrization (paper §3.4–3.6)
// and the top-k expansion of MCL — is one row-wise Gustavson SpGEMM:
// scatter an output row into a dense accumulator, flush the survivors,
// move on. The engine owns that loop once: a product describes how one
// row is scattered and under which rule it is pruned, and run drives
// the rows in tiles. The only other product in the package is the
// deliberately separate reference in oracle.go that tests compare
// against.

// tileRows is the row-block granularity of the driver. One tile's
// output rows stay cache-resident while the block is produced, tiles
// are the unit workers claim, and the tile boundary is the cancellation
// poll point: one ctx.Err() per 512 rows keeps the overhead
// unmeasurable while bounding post-cancellation work to one block.
const tileRows = 512

// accumulator is a dense scatter workspace (SPA) for row-wise sparse
// products. acc holds partial sums indexed by output column; mark holds
// a per-column generation stamp so resetting between rows is O(1), and
// touched lists the columns hit in the current generation.
type accumulator struct {
	acc     []float64
	mark    []uint32
	gen     uint32
	touched []int32
}

func newAccumulator(cols int) *accumulator {
	return &accumulator{
		acc:     make([]float64, cols),
		mark:    make([]uint32, cols),
		gen:     1,
		touched: make([]int32, 0, 256),
	}
}

func (s *accumulator) add(col int32, v float64) {
	if s.mark[col] != s.gen {
		s.mark[col] = s.gen
		s.acc[col] = 0
		s.touched = append(s.touched, col)
	}
	s.acc[col] += v
}

// product is one sparse row product handed to the engine: the output
// shape, how output row i is scattered into the accumulator, and the
// prune rule its rows are flushed under.
type product struct {
	rows, cols int
	scatter    func(i int, spa *accumulator)
	// threshold drops entries with |v| < threshold as each row is
	// flushed, so the unpruned product never materialises.
	threshold float64
	// topK > 0 additionally keeps at most the topK largest |v| of each
	// row (ties toward lower column ids).
	topK int
	// mirrored marks a symmetric product whose scatter emits only the
	// upper triangle (columns ≥ row): the driver mirrors the result, and
	// a killed strict-upper entry counts twice in the prune tally (its
	// mirror image dies with it), a killed diagonal entry once — exactly
	// the full product's accounting.
	mirrored bool
}

// rowSink is the output of a run of consecutive rows: their column
// indices and values back to back, row lengths kept by the driver.
type rowSink struct {
	cols []int32
	vals []float64
}

// flush appends the accumulated row to sink and resets the workspace:
// threshold filter, optional top-k selection, then a column sort for
// CSR order. It returns the number of entries appended and the
// threshold's kill count, the quantity the obs prune accounting
// aggregates.
func (s *accumulator) flush(sink *rowSink, p *product, row int) (n int, killed int64) {
	// Filter before sorting: with an aggressive threshold most touched
	// columns are dropped, and sorting only the survivors is much
	// cheaper than sorting everything.
	threshold := p.threshold
	kept := s.touched[:0]
	for _, c := range s.touched {
		v := s.acc[c]
		if v == 0 {
			continue
		}
		if math.Abs(v) >= threshold {
			kept = append(kept, c)
		} else {
			killed++
		}
	}
	if p.mirrored {
		// Every strict-upper kill takes its mirror image with it; the
		// diagonal entry, if this row touched and lost it, has none.
		killed *= 2
		if d := s.acc[row]; s.mark[row] == s.gen && d != 0 && math.Abs(d) < threshold {
			killed--
		}
	}
	if p.topK > 0 && len(kept) > p.topK {
		quickselectTopK(kept, s.acc, p.topK)
		kept = kept[:p.topK]
	}
	sort.Slice(kept, func(x, y int) bool { return kept[x] < kept[y] })
	sink.cols = append(sink.cols, kept...)
	for _, c := range kept {
		sink.vals = append(sink.vals, s.acc[c])
	}
	s.touched = s.touched[:0]
	s.gen++
	if s.gen == 0 { // wrapped: clear stale marks and restart
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.gen = 1
	}
	return len(kept), killed
}

// quickselectTopK partially orders cols so that the k entries with the
// largest |acc| values occupy cols[:k]. Ties break toward lower column
// ids for determinism.
func quickselectTopK(cols []int32, acc []float64, k int) {
	lo, hi := 0, len(cols)-1
	greater := func(a, b int32) bool {
		va, vb := math.Abs(acc[a]), math.Abs(acc[b])
		if va != vb {
			return va > vb
		}
		return a < b
	}
	for lo < hi {
		p := cols[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for greater(cols[i], p) {
				i++
			}
			for greater(p, cols[j]) {
				j--
			}
			if i <= j {
				cols[i], cols[j] = cols[j], cols[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// run drives the product's rows and returns the result. Rows are cut
// into tileRows-sized tiles claimed from a shared counter (dynamic
// scheduling — skewed rows do not serialise behind one static block),
// each worker with a private accumulator; row-partitioned work has no
// cross-row interaction, so every worker count produces the same bits.
// With workers == 1 the same tile loop runs inline on the caller's
// goroutine and appends straight into the output; more workers fill one
// sink per tile, stitched in tile order. ctx is polled once per tile
// claim, and a cancelled ctx abandons the product with ctx's error.
func (p *product) run(ctx context.Context, workers int) (*CSR, error) {
	nTiles := (p.rows + tileRows - 1) / tileRows
	workers = min(workers, nTiles)
	out := &CSR{Rows: p.rows, Cols: p.cols, RowPtr: make([]int64, p.rows+1)}
	// A lone worker appends every tile to one sink, which becomes the
	// output as is; concurrent workers need a sink per tile.
	sinks := make([]rowSink, 1)
	if workers > 1 {
		sinks = make([]rowSink, nTiles)
	}
	var next, killed atomic.Int64
	var stop atomic.Pointer[error]
	work := func() {
		spa := newAccumulator(p.cols)
		for {
			t := int(next.Add(1) - 1)
			if t >= nTiles || stop.Load() != nil {
				return
			}
			if err := ctx.Err(); err != nil {
				stop.CompareAndSwap(nil, &err)
				return
			}
			sink := &sinks[t%len(sinks)]
			var tileKilled int64
			for i, hi := t*tileRows, min((t+1)*tileRows, p.rows); i < hi; i++ {
				p.scatter(i, spa)
				n, k := spa.flush(sink, p, i)
				out.RowPtr[i+1] = int64(n) // row length; summed below
				tileKilled += k
			}
			killed.Add(tileKilled)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := stop.Load(); err != nil {
		return nil, *err
	}
	obs.PruneStatsFrom(ctx).Add(killed.Load())

	for i := 0; i < p.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	if len(sinks) == 1 {
		out.ColIdx, out.Val = sinks[0].cols, sinks[0].vals
	} else {
		nnz := out.RowPtr[p.rows]
		out.ColIdx = make([]int32, 0, nnz)
		out.Val = make([]float64, 0, nnz)
		for t := range sinks {
			out.ColIdx = append(out.ColIdx, sinks[t].cols...)
			out.Val = append(out.Val, sinks[t].vals...)
		}
	}
	if p.mirrored {
		out = mirrorUpper(out)
	}
	return out, nil
}

package matrix

import (
	"context"
	"math"
	"slices"
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

// Tiles are the row blocks of the driver: the unit workers claim and
// the cancellation poll point. maxTileRows keeps one tile's output rows
// cache-resident and bounds post-cancellation work to one block at an
// unmeasurable one ctx.Err() per 512 rows; below minTileRows a claim
// (an atomic, a poll, on a spawned worker a wake-up) stops being small
// beside the rows it buys; tilesPerWorker is the slack dynamic
// scheduling needs to even out skewed rows.
const (
	maxTileRows    = 512
	minTileRows    = 64
	tilesPerWorker = 4
)

// tiling derives how a product of the given rows is cut for the workers
// offered: the tile height — tilesPerWorker tiles each when the rows
// allow it, clamped to [minTileRows, maxTileRows] — the tile count, and
// the workers that will run, never more than there are tiles. Large
// products keep the 512-row tile whatever the count; a 540-row flow on
// two workers is cut into eight 68-row tiles instead of 512 + 28.
func tiling(rows, workers int) (height, nTiles, running int) {
	workers = max(workers, 1)
	want := workers * tilesPerWorker
	height = max(minTileRows, min((rows+want-1)/want, maxTileRows))
	nTiles = (rows + height - 1) / height
	return height, nTiles, max(1, min(workers, nTiles))
}

// accumulator is a dense scatter workspace (SPA) for row-wise sparse
// products. acc holds partial sums indexed by output column; mark holds
// a per-column generation stamp so resetting between rows is O(1), and
// touched lists the columns hit in the current generation.
type accumulator struct {
	acc     []float64
	mark    []uint32
	gen     uint32
	touched []int32
	// Workers append to touched and bump gen on every row: pad the
	// struct to two cache lines so two workers' accumulators, allocated
	// back to back, never share one.
	_ [48]byte
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
	// rowEpilogue, when set, rewrites each just-flushed row in place
	// while it is still in cache — cols ascending, vals aligned — and
	// returns how many leading entries survive; the driver totals the
	// entries it trims. It runs on whichever worker produced the row, so
	// it may touch nothing but its arguments.
	rowEpilogue func(cols []int32, vals []float64) int
}

// workspace is everything a product allocates besides its result: one
// accumulator per worker and, under concurrent workers, one staging
// sink per tile. The zero value is ready; a workspace reused across
// products of one shape makes the driver allocation-free once its
// buffers have grown to size.
type workspace struct {
	spas  []*accumulator
	sinks []rowSink
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
	slices.Sort(kept)
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

// run drives the product into a fresh result with a fresh workspace.
func (p *product) run(ctx context.Context, workers int) (*CSR, error) {
	out := &CSR{}
	if _, err := p.runInto(ctx, workers, &workspace{}, out); err != nil {
		return nil, err
	}
	if p.mirrored {
		out = mirrorUpper(out)
	}
	return out, nil
}

// runInto drives the product's rows into out, reusing out's arrays and
// ws's buffers where they are large enough, and returns the number of
// entries the row epilogue trimmed. Rows are cut into tiles (tiling)
// claimed from a shared counter (dynamic scheduling — skewed rows do
// not serialise behind one static block), each worker with a private
// accumulator; row-partitioned work has no cross-row interaction, so
// every worker count produces the same bits. With one worker the same
// tile loop runs inline on the caller's goroutine and appends straight
// into out; more workers fill one staging sink per tile, stitched in
// tile order. ctx is polled once per tile claim, and a cancelled ctx
// abandons the product with ctx's error, leaving out undefined. A panic
// on a spawned worker is re-raised on the caller's goroutine once every
// worker has returned, so a caller's recover sees it as it would the
// inline loop's.
func (p *product) runInto(ctx context.Context, workers int, ws *workspace, out *CSR) (trimmed int64, err error) {
	height, nTiles, workers := tiling(p.rows, workers)
	out.Rows, out.Cols = p.rows, p.cols
	out.RowPtr = slices.Grow(out.RowPtr[:0], p.rows+1)[:p.rows+1]
	out.RowPtr[0] = 0
	// A lone worker appends every tile to one sink, which is the output
	// as is; concurrent workers need a sink per tile.
	sinks := []rowSink{{cols: out.ColIdx[:0], vals: out.Val[:0]}}
	if workers > 1 {
		if cap(ws.sinks) < nTiles {
			ws.sinks = make([]rowSink, nTiles)
		}
		sinks = ws.sinks[:nTiles]
		for t := range sinks {
			sinks[t].cols, sinks[t].vals = sinks[t].cols[:0], sinks[t].vals[:0]
		}
	}
	for w := 0; w < workers; w++ {
		if w == len(ws.spas) {
			ws.spas = append(ws.spas, nil)
		}
		if ws.spas[w] == nil || len(ws.spas[w].acc) != p.cols {
			ws.spas[w] = newAccumulator(p.cols)
		}
	}
	var next, killed, trim atomic.Int64
	var stop atomic.Pointer[error]
	work := func(w int) {
		spa := ws.spas[w]
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
			var tileKilled, tileTrimmed int64
			for i, hi := t*height, min((t+1)*height, p.rows); i < hi; i++ {
				p.scatter(i, spa)
				n, k := spa.flush(sink, p, i)
				tileKilled += k
				if p.rowEpilogue != nil {
					lo := len(sink.cols) - n
					m := p.rowEpilogue(sink.cols[lo:], sink.vals[lo:])
					sink.cols, sink.vals = sink.cols[:lo+m], sink.vals[:lo+m]
					tileTrimmed += int64(n - m)
					n = m
				}
				out.RowPtr[i+1] = int64(n) // row length; summed below
			}
			killed.Add(tileKilled)
			trim.Add(tileTrimmed)
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		var panicked atomic.Pointer[any]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &r)
						next.Store(int64(nTiles)) // no further claims
					}
				}()
				work(w)
			}()
		}
		wg.Wait()
		if r := panicked.Load(); r != nil {
			panic(*r)
		}
	}
	if err := stop.Load(); err != nil {
		return 0, *err
	}
	obs.PruneStatsFrom(ctx).Add(killed.Load())

	for i := 0; i < p.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	if workers == 1 {
		out.ColIdx, out.Val = sinks[0].cols, sinks[0].vals
	} else {
		nnz := int(out.RowPtr[p.rows])
		out.ColIdx = slices.Grow(out.ColIdx[:0], nnz)
		out.Val = slices.Grow(out.Val[:0], nnz)
		for t := range sinks {
			out.ColIdx = append(out.ColIdx, sinks[t].cols...)
			out.Val = append(out.Val, sinks[t].vals...)
		}
	}
	return trim.Load(), nil
}

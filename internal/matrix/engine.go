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

// accumulator is the dense scatter workspace (SPA) of a row-wise sparse
// product: acc holds partial sums indexed by output column, in a mode
// derived per row (begin). A dense row clears its column span up front,
// adds unconditionally, and finds its survivors by one scan of the span,
// already in column order. A marked row stamps mark[c] with the row's
// generation on first touch — resetting between rows is O(1) — and lists
// the columns it hit in touched[:n]. Both add the same products to the
// same +0 start in the same order, hence the same bits.
type accumulator struct {
	acc     []float64
	mark    []uint32
	gen     uint32
	touched []int32   // marked: the columns hit; at flush: the candidates
	n       int       // marked: how many columns are hit
	keys    []float64 // top-k selection scratch, allocated on first use
	lo, hi  int       // the row's column span
	dense   bool      // the row's mode
	force   int8      // tests only: > 0 every row dense, < 0 every row marked
	// Drained by the driver: rows run dense, rows re-collected hint-free.
	denseRows, fallbacks int64
	// Workers write these fields on every row: pad to three cache lines
	// so two workers' accumulators, allocated back to back, share none.
	_ [40]byte
}

// newAccumulator sizes every per-column array once, at cols.
func newAccumulator(cols int) *accumulator {
	return &accumulator{
		acc:     make([]float64, cols),
		mark:    make([]uint32, cols),
		gen:     1,
		touched: make([]int32, cols),
	}
}

// A row goes dense when its flop bound reaches 1/denseSpanShare of its
// span: where clearing and scanning the span starts to cost less than the
// mark test and the column sort (`make kernel-bench`, DESIGN.md §15).
const denseSpanShare = 2

// begin opens row i of p — its span is [i, cols) when p is mirrored —
// and derives the row's mode from the spec's flop bound.
func (s *accumulator) begin(p *product, i int) {
	s.lo, s.hi, s.n = 0, p.cols, 0
	if p.mirrored {
		s.lo = i
	}
	s.dense = s.force > 0 || s.force == 0 && p.bound(i)*denseSpanShare >= s.hi-s.lo
	if s.dense {
		s.denseRows++
		clear(s.acc[s.lo:s.hi])
	}
}

// axpy adds w·vals[t] to column cols[t] for every t: the engine's one
// row primitive. Each product is rounded before it is added —
// float64(w * v) — because the Go spec lets x*y + z fuse into a single
// rounding on arm64, ppc64 and s390x, and "bit-identical to the oracle"
// has to mean the same bits on every architecture.
func (s *accumulator) axpy(w float64, cols []int32, vals []float64) {
	acc, vals := s.acc, vals[:len(cols)]
	if s.dense {
		for t, c := range cols {
			acc[c] += float64(w * vals[t])
		}
		return
	}
	mark, gen, touched, n := s.mark, s.gen, s.touched, s.n
	for t, c := range cols {
		if mark[c] != gen {
			mark[c] = gen
			acc[c] = 0
			touched[n] = c
			n++
		}
		acc[c] += float64(w * vals[t])
	}
	s.n = n
}

// product is one sparse row product handed to the engine: the output
// shape, how output row i is scattered into the accumulator, and the
// prune rule its rows are flushed under.
type product struct {
	rows, cols int
	// bound is a cheap upper bound on the products scatter adds for row
	// i: the lengths of the operand rows it matches, summed (rowFlops).
	bound   func(i int) int
	scatter func(i int, spa *accumulator)
	// threshold drops entries with |v| < threshold as each row is
	// flushed, so the unpruned product never materialises.
	threshold float64
	// topK > 0 additionally keeps at most the topK largest |v| of each
	// row (ties toward lower column ids).
	topK int
	// tau, when set, holds one top-k cut per row: flush takes row i's as
	// a hint and leaves the k-th magnitude it found (0 if there is none).
	tau []float64
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

// rowFlops sums the lengths of the rows of b that row i of a selects.
func rowFlops(a, b *CSR, i int) int {
	var n int64
	for _, c := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
		n += b.RowPtr[c+1] - b.RowPtr[c]
	}
	return int(n)
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

// collect gathers the row's candidates — the columns whose |sum| is not
// below cut, a NaN among them — into touched[:m] and counts the nonzero
// sums. A dense row finds them in column order; a marked row partitions
// its touched list, which can therefore be collected again. Magnitudes
// compare as integers (sign shifted out, NaN on top): no data-decided
// branch.
func (s *accumulator) collect(cut float64) (m, nonzero int) {
	acc, touched, cutBits := s.acc, s.touched, math.Float64bits(cut)<<1
	if s.dense {
		return scanSpan(acc[s.lo:s.hi], s.lo, cutBits, touched)
	}
	for j, c := range touched[:s.n] {
		x := math.Float64bits(acc[c]) << 1
		touched[j], touched[m] = touched[m], c
		if x >= cutBits {
			m++
		}
		if x != 0 {
			nonzero++
		}
	}
	return m, nonzero
}

// scanSpanGo is the dense row's scan, and its definition: of the sums in
// span, which holds columns lo, lo+1, …, it lists the columns whose
// magnitude bits, shifted as collect shifts them, reach cutBits in
// touched[:m], ascending, and counts the sums that are not ±0. What it
// leaves in touched past m is scratch.
func scanSpanGo(span []float64, lo int, cutBits uint64, touched []int32) (m, nonzero int) {
	for j, v := range span {
		x := math.Float64bits(v) << 1
		touched[m] = int32(lo + j)
		if x >= cutBits {
			m++
		}
		if x != 0 {
			nonzero++
		}
	}
	return m, nonzero
}

// vectorScan says that dense rows are scanned four sums a step by
// scanSpanAVX2. It is decided once, at package init, from what the CPU
// and the OS support (scan_amd64.go), and is false on every other target
// and under the purego build tag (scan_generic.go); tests that hold the
// two bodies to each other clear it, and never set it where init left
// it clear.
var vectorScan = haveAVX2()

// ScanBody names the body that scans dense rows in this process, "avx2"
// or "go", for the spans and the start-up log line that report it.
func ScanBody() string {
	if vectorScan {
		return "avx2"
	}
	return "go"
}

// scanSpan is scanSpanGo with the largest multiple-of-four prefix of the
// span handed to the vector body when there is one: the same m, nonzero
// and touched[:m].
func scanSpan(span []float64, lo int, cutBits uint64, touched []int32) (m, nonzero int) {
	if n := len(span) &^ 3; vectorScan && n > 0 {
		_ = touched[n-1] // the routine checks no bound: n candidates must fit
		m, nonzero = scanSpanAVX2(span[:n], lo, cutBits, touched)
		span, lo, touched = span[n:], lo+n, touched[m:]
	}
	tm, tnz := scanSpanGo(span, lo, cutBits, touched)
	return m + tm, nonzero + tnz
}

// flush appends the accumulated row to sink in column order and closes
// it: threshold filter, then optional top-k. It returns the number of
// entries appended and the threshold's kill count, the quantity the obs
// prune accounting aggregates.
//
// Top-k is a selection, not a sort: the candidates' magnitudes go into a
// contiguous key vector, KthLargest finds the k-th, τ, and the emit pass
// takes everything above τ and the first ties at it — lowest columns
// first. With p.tau the candidates are first collected at half the row's
// previous τ: if k turn up, the top k, ties included, lie among them —
// exact whatever the hint was worth; if not, the row is collected again.
func (s *accumulator) flush(sink *rowSink, p *product, row int) (n int, killed int64) {
	// A sum survives when it is neither zero nor below the threshold: one
	// comparison against floor. A NaN passes every cut (it is below
	// nothing) and dies in the emit loop (it is above nothing).
	floor := max(p.threshold, math.SmallestNonzeroFloat64)
	cut := floor
	if p.tau != nil && floor == math.SmallestNonzeroFloat64 {
		// (a real threshold's kills could not be told from the sums
		// between it and the hint)
		cut = max(floor, p.tau[row]/2)
	}
	var m, nonzero, live, ties int // live: the candidates that are not NaN
	var tau float64
	for {
		m, nonzero = s.collect(cut)
		live, tau, ties = -1, 0, 0
		if p.topK > 0 && m >= p.topK {
			if s.keys == nil {
				s.keys = make([]float64, len(s.acc))
			}
			keys := s.keys[:m]
			live = m
			for j, c := range s.touched[:m] {
				a := math.Abs(s.acc[c])
				if a != a {
					a, live = -1, live-1
				}
				keys[j] = a
			}
			if live >= p.topK {
				tau, ties = KthLargest(keys, p.topK), p.topK
				for _, a := range keys[:p.topK] { // now the k largest
					if a > tau {
						ties--
					}
				}
			}
		}
		if cut == floor || live >= p.topK {
			break
		}
		cut = floor
		s.fallbacks++
	}
	cand := s.touched[:m]
	if !s.dense {
		slices.Sort(cand)
	}
	for _, c := range cand {
		v := s.acc[c]
		if a := math.Abs(v); a == tau {
			if ties == 0 {
				continue
			}
			ties--
		} else if !(a > tau) {
			continue
		}
		sink.cols = append(sink.cols, c)
		sink.vals = append(sink.vals, v)
		n++
	}
	if p.tau != nil {
		p.tau[row] = tau
	}
	if tau == 0 {
		live = n // nothing was selected away: what was not emitted is NaN
	}
	// Kills: the NaNs and (no hint in play) the sums below floor.
	killed = int64(m - live)
	if cut == floor {
		killed = int64(nonzero - live)
	}
	if p.mirrored {
		// Every strict-upper kill takes its mirror image with it; the
		// diagonal entry, if this row summed and lost it, has none.
		killed *= 2
		if d := s.acc[row]; (s.dense || s.mark[row] == s.gen) && d != 0 && !(math.Abs(d) >= floor) {
			killed--
		}
	}
	if !s.dense {
		s.gen++
		if s.gen == 0 { // wrapped: clear stale marks and restart
			clear(s.mark)
			s.gen = 1
		}
	}
	return n, killed
}

// KthLargest returns the k-th largest of keys, 1 ≤ k ≤ len(keys), none
// of them NaN, and reorders keys so that keys[:k] are the k largest.
func KthLargest(keys []float64, k int) float64 {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		p := keys[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for keys[i] > p {
				i++
			}
			for keys[j] < p {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			break
		}
	}
	return keys[k-1]
}

// run drives the product into a fresh result with a fresh workspace.
func (p *product) run(ctx context.Context, workers int) (*CSR, error) {
	out := &CSR{}
	if _, err := p.runInto(ctx, workers, &workspace{}, out); err != nil {
		return nil, err
	}
	if p.mirrored {
		out = MirrorUpper(out)
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
	var next, killed, trim, denseRows, fallbacks atomic.Int64
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
				spa.begin(p, i)
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
			denseRows.Add(spa.denseRows)
			fallbacks.Add(spa.fallbacks)
			spa.denseRows, spa.fallbacks = 0, 0
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
	stats := obs.PruneStatsFrom(ctx)
	stats.Add(killed.Load())
	stats.AddRowPaths(denseRows.Load(), fallbacks.Load())

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

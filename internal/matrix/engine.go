package matrix

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
// product: acc holds partial sums indexed by output column, cols of them
// for each row it accumulates at once (a group, group.go; one for any
// other product), in a mode derived per row or group (begin). A dense
// row clears its column span up front, adds unconditionally, and finds
// its survivors by one scan of the span, already in column order. A
// marked row stamps mark[c] with the row's generation on first touch —
// resetting between rows is O(1) — and lists the columns it hit in
// touched[:n]; the rows of a group hit the same columns and share both.
// Both add the same products to the same +0 start in the same order,
// hence the same bits.
type accumulator struct {
	acc     []float64 // a row's sum of column c is its member(m)[c*stride]
	cols    int
	stride  int
	mark    []uint32
	gen     uint32
	touched []int32   // marked: the columns hit, plus a slot of slack; at flush: the candidates
	n       int       // marked: how many columns are hit
	keys    []float64 // top-k selection scratch, allocated on first use
	lo, hi  int       // the row's column span
	dense   bool      // the row's mode
	force   int8      // tests only: > 0 every row dense, < 0 every row marked
	tally   Tally     // what the run's rows it flushed did; runInto sums the workers'
	row     rowSink   // a merged product's row, flushed before it is merged
	// Workers write these fields on every row: pad to four cache lines
	// so two workers' accumulators, allocated back to back, share none.
	_ [16]byte
}

// Tally is what a product's prune rule and row paths did to its rows:
// the entries the threshold killed (a mirrored product counts as the
// full product would, mirror images included), the entries the row
// epilogue trimmed, the rows accumulated dense, the top-k selections
// that fell back from their hint to a full collect, and the rows
// expanded in a group of two or more.
type Tally struct {
	Killed, Trimmed, DenseRows, Fallbacks, Grouped int64
}

// Add adds u's counts to t's.
func (t *Tally) Add(u Tally) {
	t.Killed += u.Killed
	t.Trimmed += u.Trimmed
	t.DenseRows += u.DenseRows
	t.Fallbacks += u.Fallbacks
	t.Grouped += u.Grouped
}

// newAccumulator sizes every per-column array once, at cols, with sums
// for members rows.
func newAccumulator(cols, members int) *accumulator {
	s := &accumulator{gen: 1}
	s.fit(cols, members)
	return s
}

// fit sizes every per-column array at cols, with sums for members rows,
// reslicing the arrays that have room rather than allocating: a product
// of another width reuses the accumulator, and its tally starts at zero.
// No mark ever holds the current generation before this row touched it —
// a wrap clears every mark the array has room for — so marks left past a
// shorter length stay stale when it grows back over them.
func (s *accumulator) fit(cols, members int) {
	if cap(s.mark) < cols {
		s.mark, s.touched, s.gen = make([]uint32, cols), make([]int32, cols+1), 1
	}
	if cap(s.acc) < members*cols {
		s.acc = make([]float64, members*cols)
	}
	s.acc, s.mark, s.touched, s.cols = s.acc[:members*cols], s.mark[:cols], s.touched[:cols+1], cols
	if cap(s.keys) < cols {
		s.keys = nil // flush allocates it on first top-k use
	}
	s.tally = Tally{}
}

// sums returns the m-th cols-long span of acc.
func (s *accumulator) sums(m int) []float64 { return s.acc[m*s.cols : (m+1)*s.cols] }

// member returns the sums of the m-th row begin opened: column c's sum is
// at [c*stride].
func (s *accumulator) member(m int) []float64 {
	if s.stride > 1 {
		return s.acc[m:]
	}
	return s.sums(m)
}

// A row goes dense when its flop bound reaches 1/denseSpanShare of its
// span: where clearing and scanning the span starts to cost less than the
// mark test and the column sort (`make kernel-bench`, DESIGN.md §15).
const denseSpanShare = 2

// begin opens members rows over the column span [lo, hi) — a mirrored
// product's row i spans [i, cols) — each with at most bound products to
// add, and derives their mode from the bound. Dense rows' sums lie row
// after row, each a span to clear and scan; marked rows' interleave —
// the members' sums of column c side by side, which a marked group
// touches together.
func (s *accumulator) begin(lo, hi, bound, members int) {
	s.lo, s.hi, s.n, s.stride = lo, hi, 0, 1
	s.dense = s.force > 0 || s.force == 0 && bound*denseSpanShare >= hi-lo
	if s.dense {
		s.tally.DenseRows += int64(members)
		for m := range members {
			clear(s.sums(m)[lo:hi])
		}
	} else {
		s.stride = members
	}
}

// end closes the rows begin opened: a marked row's marks go stale.
func (s *accumulator) end() {
	if !s.dense {
		s.gen++
		if s.gen == 0 { // wrapped: clear stale marks and restart
			clear(s.mark[:cap(s.mark)])
			s.gen = 1
		}
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
	// Branch-free: a first touch masks the stale sum to +0 and keeps the
	// slot it wrote; a later one rewrites the slot past the list (slack).
	mark, gen, touched, n := s.mark, s.gen, s.touched, s.n
	for t, c := range cols {
		fresh := b2i(mark[c] != gen)
		mark[c] = gen
		touched[n] = c
		n += fresh
		acc[c] = math.Float64frombits(math.Float64bits(acc[c])&^-uint64(fresh)) + float64(w*vals[t])
	}
	s.n = n
}

// b2i is 1 for true: a count advanced by it is a flag read, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// product is one sparse row product handed to the engine: the output
// shape, how output row i is scattered into the accumulator, and the
// prune rule its rows are flushed under.
type product struct {
	rows, cols int
	// a and b, when set, make the product the plain a·b, whose rows the
	// driver expands in groups that share a's column list (group.go);
	// bound and scatter are then unused.
	a, b *CSR
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
	// merge, when set, takes each flushed row — in the worker's own
	// scratch — and appends what row i emits in its place to sink. It
	// runs on the worker that produced the row, like rowEpilogue.
	merge func(i int, row rowSink, sink *rowSink)
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
// accumulator per worker, under concurrent workers one staging sink per
// tile, a plain product's row groups, and what the workers of a run
// share. The zero value is ready; a workspace reused across products
// makes the driver allocation-free on one worker — more spawn
// goroutines — once its buffers have grown to the widest of them.
type workspace struct {
	spas   []*accumulator
	sinks  []rowSink
	groups grouping
	run    tileRun
}

// tileRun is what the workers of one run share: the product and its
// output, the sinks or the groups, the tile counter and the first error.
// It holds the run's references only while the run lasts.
type tileRun struct {
	p              *product
	ctx            context.Context
	out            *CSR
	sinks          []rowSink
	lone           [1]rowSink // a lone worker's sink: the output itself
	groups         *grouping  // a plain product's: its tiles are batches of groups
	height, nTiles int
	next           atomic.Int64
	stop           atomic.Pointer[error]
}

// release drops the run's references, so an idle workspace holds no
// product, context or output.
func (r *tileRun) release() {
	r.p, r.ctx, r.out, r.sinks, r.lone[0], r.groups = nil, nil, nil, nil, rowSink{}, nil
}

// rowSink is the output of a run of consecutive rows: their column
// indices and values back to back, row lengths kept by the driver.
type rowSink struct {
	cols []int32
	vals []float64
}

// collect gathers the candidates of the row whose sums are acc — the
// columns whose |sum| is not below cut, a NaN among them — into
// touched[:m] and counts the nonzero sums. A dense row finds them in
// column order; a marked row partitions its touched list, which can
// therefore be collected again, for this row or another of its group.
// Magnitudes compare as integers (sign shifted out, NaN on top): no
// data-decided branch.
func (s *accumulator) collect(acc []float64, cut float64) (m, nonzero int) {
	touched, cutBits, stride := s.touched, math.Float64bits(cut)<<1, s.stride
	if s.dense {
		return scanSpan(acc[s.lo:s.hi], s.lo, cutBits, touched)
	}
	for j, c := range touched[:s.n] {
		x := math.Float64bits(acc[int(c)*stride]) << 1
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

// flush appends row, whose sums are acc, to sink in column order:
// threshold filter, then optional top-k. It returns the number of
// entries appended and adds the threshold's kills, and a fallback if
// the hint fell short, to s's tally. It leaves the row open (end closes
// it).
//
// Top-k is a selection, not a sort: the candidates' magnitudes go into a
// contiguous key vector, kthLargest finds the k-th, τ, and the emit pass
// takes everything above τ and the first ties at it — lowest columns
// first. With p.tau the candidates are first collected at half the row's
// previous τ: if k turn up, the top k, ties included, lie among them —
// exact whatever the hint was worth; if not, the row is collected again.
func (s *accumulator) flush(sink *rowSink, p *product, row int, acc []float64) (n int) {
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
		m, nonzero = s.collect(acc, cut)
		live, tau, ties = -1, 0, 0
		if p.topK > 0 && m >= p.topK {
			if s.keys == nil {
				s.keys = make([]float64, len(s.touched))
			}
			keys := s.keys[:m]
			live = m
			for j, c := range s.touched[:m] {
				a := math.Abs(acc[int(c)*s.stride])
				if a != a {
					a, live = -1, live-1
				}
				keys[j] = a
			}
			if live >= p.topK {
				tau, ties = kthLargest(keys, p.topK), p.topK
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
		s.tally.Fallbacks++
	}
	cand := s.touched[:m]
	if !s.dense {
		slices.Sort(cand)
	}
	for _, c := range cand {
		v := acc[int(c)*s.stride]
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
	killed := int64(m - live)
	if cut == floor {
		killed = int64(nonzero - live)
	}
	if p.mirrored {
		// Every strict-upper kill takes its mirror image with it; the
		// diagonal entry, if this row summed and lost it, has none.
		killed *= 2
		if d := acc[row*s.stride]; (s.dense || s.mark[row] == s.gen) && d != 0 && !(math.Abs(d) >= floor) {
			killed--
		}
	}
	s.tally.Killed += killed
	return n
}

// kthLargest returns the k-th largest of keys, 1 ≤ k ≤ len(keys), none
// of them NaN, and reorders keys so that keys[:k] are the k largest.
func kthLargest(keys []float64, k int) float64 {
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

// run drives the product into a fresh result with a fresh workspace and
// returns it with the run's tally.
func (p *product) run(ctx context.Context, workers int) (*CSR, Tally, error) {
	out := &CSR{}
	tally, err := p.runInto(ctx, workers, &workspace{}, out)
	if err != nil {
		return nil, Tally{}, err
	}
	if p.mirrored {
		out = MirrorUpper(out)
	}
	return out, tally, nil
}

// runInto drives the product's rows into out, reusing out's arrays and
// ws's buffers where they are large enough, and returns the run's tally:
// each worker's accumulator counts the rows it flushes, and the running
// workers' counts are summed once they have all returned. Rows are cut
// into tiles (tiling) —
// a plain product's into batches of row groups of at most a tile's rows
// (group.go) — claimed from a shared counter (dynamic scheduling —
// skewed rows do not serialise behind one static block), each worker
// with a private accumulator; rows have no cross-row interaction, so
// every worker count produces the same bits. With one worker the same
// loop runs inline on the caller's goroutine. A tiled product's lone
// worker appends straight into out, and several fill one staging sink
// per tile, stitched in tile order; a plain product's rows are written
// to their slots of out and packed in row order at the end. ctx is
// polled once per claim, and a cancelled ctx abandons the product with
// ctx's error, leaving out undefined. A panic on a spawned worker is
// re-raised on the caller's goroutine once every worker has returned, so
// a caller's recover sees it as it would the inline loop's.
func (p *product) runInto(ctx context.Context, workers int, ws *workspace, out *CSR) (Tally, error) {
	height, nTiles, workers := tiling(p.rows, workers)
	out.Rows, out.Cols = p.rows, p.cols
	out.RowPtr = slices.Grow(out.RowPtr[:0], p.rows+1)[:p.rows+1]
	out.RowPtr[0] = 0
	r := &ws.run
	*r = tileRun{p: p, ctx: ctx, out: out, height: height, nTiles: nTiles}
	defer r.release()
	members := 1
	if p.a != nil {
		g := &ws.groups
		total := g.build(p.a, p.b, p.topK, height)
		out.ColIdx = slices.Grow(out.ColIdx[:0], int(total))[:total]
		out.Val = slices.Grow(out.Val[:0], int(total))[:total]
		r.groups, r.nTiles = g, len(g.batches)-1
		workers = max(1, min(workers, r.nTiles))
		members = groupWidth
	} else {
		// A lone worker appends every tile to one sink, which is the
		// output as is; concurrent workers need a sink per tile.
		r.lone[0] = rowSink{cols: out.ColIdx[:0], vals: out.Val[:0]}
		r.sinks = r.lone[:]
		if workers > 1 {
			if cap(ws.sinks) < nTiles {
				ws.sinks = make([]rowSink, nTiles)
			}
			r.sinks = ws.sinks[:nTiles]
			for t := range r.sinks {
				r.sinks[t].cols, r.sinks[t].vals = r.sinks[t].cols[:0], r.sinks[t].vals[:0]
			}
		}
	}
	for w := 0; w < workers; w++ {
		if w == len(ws.spas) {
			ws.spas = append(ws.spas, nil)
		}
		if ws.spas[w] == nil {
			ws.spas[w] = newAccumulator(p.cols, members)
		} else {
			ws.spas[w].fit(p.cols, members)
		}
	}
	if workers == 1 {
		r.claim(ws.spas[0])
	} else {
		var wg sync.WaitGroup
		var panicked atomic.Pointer[any]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						panicked.CompareAndSwap(nil, &v)
						r.next.Store(int64(r.nTiles)) // no further claims
					}
				}()
				r.claim(ws.spas[w])
			}()
		}
		wg.Wait()
		if v := panicked.Load(); v != nil {
			panic(*v)
		}
	}
	if err := r.stop.Load(); err != nil {
		return Tally{}, *err
	}
	var tally Tally
	for _, spa := range ws.spas[:workers] {
		tally.Add(spa.tally)
	}

	if r.groups != nil {
		r.groups.pack(out)
		return tally, nil
	}
	for i := 0; i < p.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	if workers == 1 {
		out.ColIdx, out.Val = r.sinks[0].cols, r.sinks[0].vals
	} else {
		nnz := int(out.RowPtr[p.rows])
		out.ColIdx = slices.Grow(out.ColIdx[:0], nnz)
		out.Val = slices.Grow(out.Val[:0], nnz)
		for t := range r.sinks {
			out.ColIdx = append(out.ColIdx, r.sinks[t].cols...)
			out.Val = append(out.Val, r.sinks[t].vals...)
		}
	}
	return tally, nil
}

// claim runs one worker of r with spa.
func (r *tileRun) claim(spa *accumulator) {
	if r.groups != nil {
		r.workGroups(spa)
	} else {
		r.work(spa)
	}
}

// work claims tiles of r until none is left, the context is done or
// another worker has stopped, scattering and flushing each tile's rows
// with spa into the tile's sink.
func (r *tileRun) work(spa *accumulator) {
	p, sinks, height := r.p, r.sinks, r.height
	for {
		t := int(r.next.Add(1) - 1)
		if t >= r.nTiles || r.stop.Load() != nil {
			return
		}
		if err := r.ctx.Err(); err != nil {
			stopped := err // escapes only on this path
			r.stop.CompareAndSwap(nil, &stopped)
			return
		}
		sink := &sinks[t%len(sinks)]
		for i, hi := t*height, min((t+1)*height, p.rows); i < hi; i++ {
			lo := 0
			if p.mirrored {
				lo = i
			}
			spa.begin(lo, p.cols, p.bound(i), 1)
			p.scatter(i, spa)
			var n int
			if p.merge == nil {
				n = spa.flush(sink, p, i, spa.acc)
			} else {
				row, lo := &spa.row, len(sink.cols)
				row.cols, row.vals = row.cols[:0], row.vals[:0]
				spa.flush(row, p, i, spa.acc)
				p.merge(i, *row, sink)
				n = len(sink.cols) - lo
			}
			spa.end()
			if p.rowEpilogue != nil {
				lo := len(sink.cols) - n
				m := p.rowEpilogue(sink.cols[lo:], sink.vals[lo:])
				sink.cols, sink.vals = sink.cols[:lo+m], sink.vals[:lo+m]
				spa.tally.Trimmed += int64(n - m)
				n = m
			}
			r.out.RowPtr[i+1] = int64(n) // row length; summed below
		}
	}
}

package matrix

import (
	"fmt"
	"slices"
)

// Row groups: how the driver runs a plain product a·b. Rows of a with the
// same column list — the same support — read the same rows of b and add
// into the same columns in the same order; only the weights differ. The
// driver expands them together: each row of b the support names is read
// once per group and added into every member's own sums, the flop bound,
// the row mode and a marked row's mark/touched bookkeeping are worked out
// once, and each member is then flushed on its own. Where the products
// are added changes, not which products or in what order, so every row
// gets the bits it would get alone. R-MCL's flow rows collapse onto few
// supports as the flow converges, and MLR-MCL's projection hands every
// member of a coarse node its parent's columns.

// groupWidth is the most rows one group holds: the sums a worker keeps
// per column, and the reach of the member loops.
const groupWidth = 8

// rowGroup is up to groupWidth rows of a with one support.
type rowGroup struct {
	hash  uint64
	first int32 // the group's first row: its columns are the support
	size  int32
	start int32 // where its rows begin in grouping.order
	bound int   // the flop bound of each member (rowFlops)
}

// grouping is the cut of a product's rows into groups and of the groups
// into batches, with each row's slot in the output. A row with a unique
// support is a group of one.
type grouping struct {
	table   []int32 // open addressing by support hash: 1 + the support's open group, 0 empty
	groups  []rowGroup
	groupOf []int32 // per row
	order   []int32 // the rows, group by group, ascending within one
	// slot[i] is where row i's entries begin in the output before pack;
	// slot[rows] is the slots' total.
	slot []int64
	// batches[t] is the first group of batch t, the unit workers claim;
	// batches[len-1] is len(groups).
	batches []int32
}

// supportHash hashes a column list; equal lists hash alike, and build
// compares the lists themselves.
func supportHash(cols []int32) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(uint32(c))) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	return h ^ h>>29
}

// build groups the rows of a for the product a·b in one pass, O(nnz(a))
// expected: each row looks its support up in a hash table that points at
// the support's open group, joins it or — it is full, or there is none —
// opens the next. A row's slot holds what it can emit: at most topK
// entries (topK > 0), its flop bound, or b's columns. A batch is as many
// groups, in order, as fit in height rows. It returns the slots' total.
func (g *grouping) build(a, b *CSR, topK, height int) int64 {
	rows := a.Rows
	size := 1
	for size < 2*rows {
		size <<= 1
	}
	mask := size - 1
	g.table = slices.Grow(g.table[:0], size)[:size]
	clear(g.table)
	g.groups = g.groups[:0]
	g.groupOf = slices.Grow(g.groupOf[:0], rows)[:rows]
	g.order = slices.Grow(g.order[:0], rows)[:rows]
	g.slot = slices.Grow(g.slot[:0], rows+1)[:rows+1]
	width := b.Cols
	if topK > 0 {
		width = min(width, topK)
	}
	var total int64
	for i := 0; i < rows; i++ {
		cols, _ := a.Row(i)
		h := supportHash(cols)
		j := int(h) & mask
		found := -1
		for ; g.table[j] != 0; j = (j + 1) & mask {
			k := int(g.table[j] - 1)
			if gr := &g.groups[k]; gr.hash == h {
				if first, _ := a.Row(int(gr.first)); slices.Equal(cols, first) {
					found = k
					break
				}
			}
		}
		switch {
		case found >= 0 && g.groups[found].size < groupWidth:
			g.groups[found].size++
		default:
			bound := 0
			if found >= 0 {
				bound = g.groups[found].bound
			} else {
				bound = rowFlops(a, b, i)
			}
			found = len(g.groups)
			g.groups = append(g.groups, rowGroup{hash: h, first: int32(i), size: 1, bound: bound})
			g.table[j] = int32(found + 1)
		}
		g.groupOf[i] = int32(found)
		g.slot[i] = total
		total += int64(min(width, g.groups[found].bound))
	}
	g.slot[rows] = total

	g.batches = append(g.batches[:0], 0)
	var at, inBatch int32
	for k := range g.groups {
		gr := &g.groups[k]
		if int(inBatch+gr.size) > height {
			g.batches = append(g.batches, int32(k))
			inBatch = 0
		}
		inBatch += gr.size
		gr.start, at = at, at+gr.size
		gr.size = 0 // recounted as the rows are placed
	}
	if inBatch > 0 {
		g.batches = append(g.batches, int32(len(g.groups)))
	}
	for i, k := range g.groupOf {
		gr := &g.groups[k]
		g.order[gr.start+gr.size] = int32(i)
		gr.size++
	}
	return total
}

// pack moves every row of out from its slot to its place in row order:
// out.RowPtr[i+1] holds row i's length on entry and its end on return.
// A row never starts past its slot, so each moves toward the front.
func (g *grouping) pack(out *CSR) {
	var at int64
	for i := 0; i < out.Rows; i++ {
		n, from := out.RowPtr[i+1], g.slot[i]
		if from != at {
			copy(out.ColIdx[at:at+n], out.ColIdx[from:from+n])
			copy(out.Val[at:at+n], out.Val[from:from+n])
		}
		at += n
		out.RowPtr[i+1] = at
	}
	out.ColIdx, out.Val = out.ColIdx[:at], out.Val[:at]
}

// workGroups claims batches of groups until none is left, the context is
// done or another worker has stopped; it expands each group with spa and
// flushes its members into their slots.
func (r *tileRun) workGroups(spa *accumulator) {
	p, g, out := r.p, r.groups, r.out
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
		for _, gr := range g.groups[g.batches[t]:g.batches[t+1]] {
			members := g.order[gr.start : gr.start+gr.size]
			spa.begin(0, p.cols, gr.bound, len(members))
			spa.expand(p.a, p.b, members)
			for m, i := range members {
				lo, hi := g.slot[i], g.slot[i+1]
				sink := rowSink{cols: out.ColIdx[lo:lo:hi], vals: out.Val[lo:lo:hi]}
				n := spa.flush(&sink, p, int(i), spa.member(m))
				if int64(n) > hi-lo {
					panic(fmt.Sprintf("matrix: row %d emitted %d entries into a slot of %d", i, n, hi-lo))
				}
				if p.rowEpilogue != nil {
					kept := p.rowEpilogue(sink.cols, sink.vals)
					spa.tally.Trimmed += int64(n - kept)
					n = kept
				}
				out.RowPtr[i+1] = int64(n) // row length; pack places it
			}
			spa.end()
			if len(members) > 1 {
				spa.tally.Grouped += int64(len(members))
			}
		}
	}
}

// expand adds row members[m] of a·b into member m's sums for every m.
// The members share a's column list, so for each of its columns k the
// row of b is read once and each member's a[i][k]·b[k][c] is added to
// that member's sum of column c, in the order the row would add it
// alone.
func (s *accumulator) expand(a, b *CSR, members []int32) {
	first := int(members[0])
	support, w0 := a.Row(first)
	if len(members) == 1 {
		for k, c := range support {
			cols, vals := b.Row(int(c))
			s.axpy(w0[k], cols, vals)
		}
		return
	}
	var at [groupWidth]int64 // where each member's row begins in a
	for m, i := range members {
		at[m] = a.RowPtr[i]
	}
	var w [groupWidth]float64
	ws := w[:len(members)]
	for k, c := range support {
		cols, vals := b.Row(int(c))
		for m := range ws {
			ws[m] = a.Val[at[m]+int64(k)]
		}
		if s.dense {
			s.addGroup(ws, cols, vals)
		} else {
			s.addMarked(ws, cols, vals)
		}
	}
}

// addMarked is addGroup for a marked group, whose members' sums of a
// column lie side by side: a column the group has not touched yet is
// stamped and listed once, and its sums start at +0, before each
// member's product is added.
func (s *accumulator) addMarked(w []float64, cols []int32, vals []float64) {
	g, acc, mark, gen, touched, n := len(w), s.acc, s.mark, s.gen, s.touched, s.n
	vals = vals[:len(cols)]
	if g == 8 {
		w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
		for t, c := range cols {
			sums := (*[8]float64)(acc[int(c)*8:])
			if mark[c] != gen {
				mark[c] = gen
				touched[n] = c
				n++
				*sums = [8]float64{}
			}
			v := vals[t]
			sums[0] += float64(w0 * v)
			sums[1] += float64(w1 * v)
			sums[2] += float64(w2 * v)
			sums[3] += float64(w3 * v)
			sums[4] += float64(w4 * v)
			sums[5] += float64(w5 * v)
			sums[6] += float64(w6 * v)
			sums[7] += float64(w7 * v)
		}
		s.n = n
		return
	}
	for t, c := range cols {
		sums := acc[int(c)*g : int(c)*g+g]
		if mark[c] != gen {
			mark[c] = gen
			touched[n] = c
			n++
			clear(sums)
		}
		v := vals[t]
		for m, wm := range w {
			sums[m] += float64(wm * v)
		}
	}
	s.n = n
}

// addGroup adds float64(w[m]·vals[t]) to column cols[t] of member m's
// sums for every m and t, eight members a pass, then four, two, one:
// each member's sums see their products in t order, as axpy adds them.
// (Each pass reslices its members' sums to one length, so one bounds
// check on a column covers them all.)
func (s *accumulator) addGroup(w []float64, cols []int32, vals []float64) {
	vals, n, m := vals[:len(cols)], s.cols, 0
	for ; m+8 <= len(w); m += 8 {
		s0, s1, s2, s3 := s.sums(m)[:n], s.sums(m + 1)[:n], s.sums(m + 2)[:n], s.sums(m + 3)[:n]
		s4, s5, s6, s7 := s.sums(m + 4)[:n], s.sums(m + 5)[:n], s.sums(m + 6)[:n], s.sums(m + 7)[:n]
		w0, w1, w2, w3, w4, w5, w6, w7 := w[m], w[m+1], w[m+2], w[m+3], w[m+4], w[m+5], w[m+6], w[m+7]
		for t, c := range cols {
			v := vals[t]
			s0[c] += float64(w0 * v)
			s1[c] += float64(w1 * v)
			s2[c] += float64(w2 * v)
			s3[c] += float64(w3 * v)
			s4[c] += float64(w4 * v)
			s5[c] += float64(w5 * v)
			s6[c] += float64(w6 * v)
			s7[c] += float64(w7 * v)
		}
	}
	for ; m+4 <= len(w); m += 4 {
		s0, s1, s2, s3 := s.sums(m)[:n], s.sums(m + 1)[:n], s.sums(m + 2)[:n], s.sums(m + 3)[:n]
		w0, w1, w2, w3 := w[m], w[m+1], w[m+2], w[m+3]
		for t, c := range cols {
			v := vals[t]
			s0[c] += float64(w0 * v)
			s1[c] += float64(w1 * v)
			s2[c] += float64(w2 * v)
			s3[c] += float64(w3 * v)
		}
	}
	if m+2 <= len(w) {
		s0, s1 := s.sums(m)[:n], s.sums(m + 1)[:n]
		w0, w1 := w[m], w[m+1]
		for t, c := range cols {
			v := vals[t]
			s0[c] += float64(w0 * v)
			s1[c] += float64(w1 * v)
		}
		m += 2
	}
	if m < len(w) {
		s0, w0 := s.sums(m), w[m]
		for t, c := range cols {
			s0[c] += float64(w0 * vals[t])
		}
	}
}

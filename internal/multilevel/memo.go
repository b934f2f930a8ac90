package multilevel

import (
	"context"
	"sync"

	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// Memo keeps the hierarchy last built over one adjacency, for an owner
// that clusters the same graph again and again (a symclusterd cache
// entry; everyone else passes nil). The matching draws from one
// generator, level after level, and MinNodes only decides where a
// hierarchy stops, so a kept one answers every ask it is deep enough for
// with a prefix of its levels. One slot, latest wins. What is handed out
// is shared: callers read it and never write it.
type Memo struct {
	adj  *matrix.CSR
	keep func(held int64) bool
	mu   sync.Mutex
	opt  Options // kept's, filled
	kept *Hierarchy
}

// NewMemo returns an empty memo for hierarchies over adj. keep, when not
// nil, is asked whether a fresh hierarchy holding that many bytes may
// stay; a refusal leaves the slot as it was. It runs under the memo's
// lock, so slot and charge change together: it must not call back in.
func NewMemo(adj *matrix.CSR, keep func(held int64) bool) *Memo {
	return &Memo{adj: adj, keep: keep}
}

// Coarsen returns what CoarsenCtx(ctx, adj, opt) would, bit for bit: the
// kept hierarchy cut to where a build under opt stops (under the usual
// span, marked cache_hit: true), or else a fresh build (marked
// cache_hit: false), built in fresh storage, which it offers to keep. A
// nil memo, or one bound to another adjacency, builds into s, or into
// fresh storage when s is nil.
func (m *Memo) Coarsen(ctx context.Context, adj *matrix.CSR, opt Options, s *Scratch) (*Hierarchy, error) {
	if m == nil || adj != m.adj {
		return coarsen(ctx, adj, opt, s)
	}
	opt.fill()
	if h := m.view(opt); h != nil {
		_, sp := obs.StartSpan(ctx, "multilevel.coarsen", obs.A("nodes", adj.Rows), obs.A("cache_hit", true))
		endCoarsen(sp, h, nil)
		return h, nil
	}
	h, err := coarsen(ctx, adj, opt, nil, obs.A("cache_hit", false))
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.keep == nil || m.keep(h.HeldBytes()) {
		m.opt, m.kept = opt, h
	}
	return h, nil
}

// view is the kept hierarchy as a build under opt would have left it, or
// nil: nothing kept, another Seed, or one that stopped at its own
// MinNodes short of opt's. One that stopped on a stalled or edgeless
// level or at maxLevels stopped where every ask would.
func (m *Memo) view(opt Options) *Hierarchy {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.kept
	if h == nil || opt.Seed != m.opt.Seed {
		return nil
	}
	if last := h.Coarsest().Adj.Rows; last > opt.MinNodes && last <= m.opt.MinNodes {
		return nil
	}
	d := 1
	for d < h.Depth() && h.Levels[d-1].Adj.Rows > opt.MinNodes {
		d++
	}
	return &Hierarchy{Levels: h.Levels[:d:d]}
}

// HeldBytes is what h keeps alive beyond the adjacency it was built
// over: each level's arrays at capacity. A coarse adjacency keeps in
// view the arrays it was assembled in, which are as long as the finer
// level's nnz.
func (h *Hierarchy) HeldBytes() (b int64) {
	for l, lev := range h.Levels {
		b += int64(cap(lev.NodeWeight))*8 + int64(cap(lev.Map))*4
		if l > 0 {
			b += int64(cap(lev.Adj.RowPtr))*8 + int64(cap(lev.Adj.ColIdx))*4 + int64(cap(lev.Adj.Val))*8
		}
	}
	return b
}

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
// span, marked cache_hit), or else a fresh build, which it offers to
// keep. A nil memo, or one bound to another adjacency, is CoarsenCtx.
func (m *Memo) Coarsen(ctx context.Context, adj *matrix.CSR, opt Options) (*Hierarchy, error) {
	if m == nil || adj != m.adj {
		return CoarsenCtx(ctx, adj, opt)
	}
	opt.fill()
	if h := m.view(opt); h != nil {
		ctx, sp := obs.StartSpan(ctx, "multilevel.coarsen", obs.A("nodes", adj.Rows), obs.A("cache_hit", true))
		endCoarsen(ctx, sp, h, nil)
		obs.ObserveHierarchy(ctx, "hit")
		return h, nil
	}
	h, err := CoarsenCtx(ctx, adj, opt)
	if err != nil {
		return nil, err
	}
	obs.ObserveHierarchy(ctx, "built")
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.keep == nil || m.keep(h.HeldBytes()) {
		m.opt, m.kept = opt, h
	}
	return h, nil
}

// view is the kept hierarchy as a build under opt would have left it, or
// nil: nothing kept, another Seed (MaxLevels, MinShrink), or one that
// stopped at its own MinNodes short of opt's. One that stopped on a
// stalled or edgeless level or MaxLevels stopped where every ask would.
func (m *Memo) view(opt Options) *Hierarchy {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.kept
	if h == nil || opt.Seed != m.opt.Seed || opt.MaxLevels != m.opt.MaxLevels || opt.MinShrink != m.opt.MinShrink {
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
// over: each level's arrays at capacity (they were assembled in place).
func (h *Hierarchy) HeldBytes() (b int64) {
	for l, lev := range h.Levels {
		b += int64(cap(lev.NodeWeight))*8 + int64(cap(lev.Map))*4
		if l > 0 {
			b += int64(cap(lev.Adj.RowPtr))*8 + int64(cap(lev.Adj.ColIdx))*4 + int64(cap(lev.Adj.Val))*8
		}
	}
	return b
}

package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"symcluster/internal/csr"
	"symcluster/internal/pipeline"
)

// Admission: every gate that can refuse a resolved clustering job sits
// in admit, in one order, and runs before anything is journaled or
// queued (DESIGN.md §9, "Admission control"). The byte estimates come
// from the pipeline registry's per-stage cost models
// (Symmetrizer.CostModel / OutOfCoreCost + Clusterer.CostModel), so a
// newly registered stage carries its admission bounds with it;
// directed-input substrates skip the symmetrizer's share. The models are
// deliberate upper bounds: an admitted request is safe, and a rejected
// one reports the worst case it could have reached.

// spillFactor bounds an out-of-core run's scratch footprint in units of
// the input's file size: the input copy (worst case, when the graph has
// no on-disk file yet), the optional self-loop-augmented copy, and one
// shared transpose — the fused kernels fold the scalings in, so no
// scaled-factor files exist — plus external-sort runs for the
// transpose, which hold the same triplets again.
const spillFactor = 4

// ticket is an admitted job's claim on the node: its working-set
// estimate (charged against Config.MaxQueueBytes until the job leaves
// the queue), whether it must run out-of-core, its place in the pool,
// and when it took it.
type ticket struct {
	est  int64
	ooc  bool
	slot *Slot
	at   time.Time
}

// admit is the one verdict on a resolved clustering job. ctx is the
// context the job will run under: the request's (plus -timeout) for a
// synchronous run, a detached one — no deadline to miss — for an async
// or replayed job. The gates, in order: the byte budget (413, or a
// reroute out-of-core), the deadline (the context's own error when it
// is over, 504 when what remains cannot fit the job), the queued-byte
// watermark (429; the incoming job's own estimate is not counted, so a
// single large job on an idle queue always gets in), a place in the
// pool (503). A nil error hands back a ticket whose slot the caller
// must end.
func (s *Server) admit(ctx context.Context, prep *preparedRun) (ticket, error) {
	est, ooc, err := s.sizeJob(prep)
	if err != nil {
		s.metrics.admissionReject.Inc()
		return ticket{}, err
	}
	if err := deadlineVerdict(ctx, est, s.cfg.DeadlineThroughput); err != nil {
		if httpStatus(err) == http.StatusGatewayTimeout {
			s.metrics.deadlineRejected.Inc()
		}
		return ticket{}, err
	}
	if max, queued := s.cfg.MaxQueueBytes, s.queuedBytes.Load(); max > 0 && queued >= max {
		s.metrics.shed.Inc()
		return ticket{}, fmt.Errorf("%w: %d bytes queued, budget %d; retry later", errShed, queued, max)
	}
	slot, err := s.pool.Reserve()
	if err != nil {
		return ticket{}, err
	}
	s.queuedBytes.Add(est)
	return ticket{est: est, ooc: ooc, slot: slot, at: time.Now()}, nil
}

// sizeJob applies the byte budgets: the working-set estimate, and
// whether the run must go out-of-core (the large operands become
// memory-mapped files, only the pruned products stay resident). The
// error is a 413 for the budgets no execution mode can evade — a method
// with no out-of-core kernel, a projected spill over
// Config.MaxSpillBytes — naming how far over the request was.
func (s *Server) sizeJob(prep *preparedRun) (est int64, ooc bool, err error) {
	rg, sym, cl := prep.rg, prep.run.Sym, prep.run.Cl
	gs := rg.stats.WithK(prep.run.ClOpt.TargetClusters)
	est = pipeline.EstimateJobBytes(sym, cl, gs)
	if s.cfg.MaxJobBytes <= 0 || est <= s.cfg.MaxJobBytes {
		return est, false, nil
	}
	tooLarge := func(format string, args ...any) error {
		return &apiError{code: http.StatusRequestEntityTooLarge, err: fmt.Errorf(format, args...)}
	}

	// Over the in-core budget. The symmetrizer is the stage the
	// estimate blames (the substrate costs are input-sized); if it can
	// run out-of-core, re-estimate with its resident bound.
	stage := cl.Name()
	if sym != nil {
		stage = sym.Name() + "+" + stage
		if oocSym, capable := sym.OutOfCoreCost(gs); capable {
			spill := spillFactor * csr.FileBytes(gs.Nodes, gs.Edges)
			if s.cfg.MaxSpillBytes > 0 && spill > s.cfg.MaxSpillBytes {
				return est, false, tooLarge("projected out-of-core spill %d bytes exceeds disk budget %d bytes (%s over %d nodes / %d edges); raise -max-spill-mb or prune the graph",
					spill, s.cfg.MaxSpillBytes, stage, rg.info.Nodes, rg.info.Edges)
			}
			return oocSym + cl.CostModel(gs), true, nil
		}
	}
	return est, false, tooLarge("estimated working set %d bytes exceeds job budget %d bytes and %s cannot run out-of-core; raise -max-job-mb or prune the graph (%d nodes / %d edges)",
		est, s.cfg.MaxJobBytes, stage, rg.info.Nodes, rg.info.Edges)
}

// spareRows is the job byte budget in 8-byte row pointers: how many
// rows that no record names an upload may still ask for. Registration
// holds a graph's id space to it on top of the readers' density bound
// (graph.CheckIDBudget; 413), so a stray id cannot size an array no job
// here could afford. No budget spares every row an id can name.
func (s *Server) spareRows() int64 {
	if s.cfg.MaxJobBytes <= 0 {
		return math.MaxInt32
	}
	return s.cfg.MaxJobBytes / 8
}

// deadlineVerdict refuses a job whose context is over, or whose
// deadline is nearer than est bytes take at throughput bytes/s — a
// wildly optimistic runtime, so only hopeless requests are refused.
func deadlineVerdict(ctx context.Context, est, throughput int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok {
		need := time.Duration(float64(est) / float64(throughput) * float64(time.Second))
		if remaining := time.Until(dl); remaining < need {
			return &apiError{code: http.StatusGatewayTimeout,
				err: fmt.Errorf("deadline too tight: %v remaining, but the job needs at least %v even at best-case throughput", remaining.Round(time.Millisecond), need.Round(time.Millisecond))}
		}
	}
	return nil
}

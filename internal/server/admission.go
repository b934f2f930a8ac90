package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"symcluster/internal/csr"
	"symcluster/internal/pipeline"
)

// Admission: every gate that can refuse a resolved clustering job sits
// in admit, in one order, and runs before anything is journaled or
// queued (DESIGN.md §9, "Admission control"). The byte estimate comes
// from the pipeline registry's per-stage cost models
// (pipeline.EstimateJobBytes; Symmetrizer.OutOfCore says whether the
// symmetrizer can run out-of-core), so a newly registered
// stage carries its admission bounds with it;
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

// ticket is an admitted job's claim on the node: whether it must run
// out-of-core, and its place in the pool.
type ticket struct {
	ooc  bool
	slot *Slot
}

// admit is the one verdict on a resolved clustering job. ctx is the
// context the job will run under: the request's (plus -timeout) for a
// synchronous run, a detached one — no deadline to miss — for an async
// or replayed job. The gates, in order: the byte budget (413, or a
// reroute out-of-core), the context's own state (504 when its deadline
// has passed, 499 when the caller is gone), a place in the pool (503).
// A live deadline is never weighed against the estimate: the estimate
// bounds bytes, not time, and a job that runs out of time dies in the
// queue or mid-run. A nil error hands back a ticket whose slot the
// caller must end.
func (s *Server) admit(ctx context.Context, prep *preparedRun) (ticket, error) {
	ooc, err := s.sizeJob(prep)
	if err != nil {
		s.metrics.admissionReject.Inc()
		return ticket{}, err
	}
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.deadlineRejected.Inc()
		}
		return ticket{}, err
	}
	slot, err := s.pool.Reserve()
	if err != nil {
		return ticket{}, err
	}
	return ticket{ooc: ooc, slot: slot}, nil
}

// sizeJob applies the byte budgets: whether the run must go
// out-of-core (the large operands become memory-mapped files, only the
// pruned products stay resident). The error is a 413 for the budgets no
// execution mode can evade — a method with no out-of-core kernel, a
// projected spill over Config.MaxSpillBytes — naming how far over the
// request was.
func (s *Server) sizeJob(prep *preparedRun) (ooc bool, err error) {
	rg, sym, cl := prep.rg, prep.run.Sym, prep.run.Cl
	gs := rg.stats.WithK(prep.run.ClOpt.TargetClusters)
	est := pipeline.EstimateJobBytes(sym, cl, gs)
	if s.cfg.MaxJobBytes <= 0 || est <= s.cfg.MaxJobBytes {
		return false, nil
	}
	tooLarge := func(format string, args ...any) error {
		return &apiError{code: http.StatusRequestEntityTooLarge, err: fmt.Errorf(format, args...)}
	}

	// Over the in-core budget. The symmetrizer is the stage the
	// estimate blames (the substrate costs are input-sized); if it can
	// run out-of-core and its spill fits the disk budget, it does.
	stage := cl.Name
	if sym != nil {
		stage = sym.Name + "+" + stage
		if sym.OutOfCore {
			spill := spillFactor * csr.FileBytes(gs.Nodes, gs.Edges)
			if s.cfg.MaxSpillBytes > 0 && spill > s.cfg.MaxSpillBytes {
				return false, tooLarge("projected out-of-core spill %d bytes exceeds disk budget %d bytes (%s over %d nodes / %d edges); raise -max-spill-mb or prune the graph",
					spill, s.cfg.MaxSpillBytes, stage, rg.info.Nodes, rg.info.Edges)
			}
			return true, nil
		}
	}
	return false, tooLarge("estimated working set %d bytes exceeds job budget %d bytes and %s cannot run out-of-core; raise -max-job-mb or prune the graph (%d nodes / %d edges)",
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

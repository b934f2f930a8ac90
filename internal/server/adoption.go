package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/jobstore"
)

// WAL adoption: when the cluster shares a durable data root (-data-dir),
// every member tries each peer's journal lock once per adoptionSweep. The
// lock is the verdict: a live peer holds it, and a survivor that wins a
// dead peer's lock replays its WAL, re-creates its unfinished jobs
// locally (checkpoints included, so kernels resume mid-run), and fences
// the dead journal so a rebooted peer does not re-run adopted work. See
// DESIGN.md §14.

// adoptionSweep is the period of the adoption sweep.
const adoptionSweep = time.Second

// sweepAdoptions runs an adoption pass over every peer each
// adoptionSweep until the server closes. New starts it only on a
// durable node: without a journal there is nothing to adopt into.
func (c *coordinator) sweepAdoptions() {
	defer c.sweeping.Done()
	t := time.NewTicker(adoptionSweep)
	defer t.Stop()
	for {
		select {
		case <-c.s.stop:
			return
		case <-t.C:
			for _, p := range c.ring.Peers() {
				if p != c.self {
					c.adoptFrom(p)
				}
			}
		}
	}
}

// nodeDirName maps a peer name to its per-node subdirectory under the
// shared durable data root. Colons (and anything else hostile to
// filesystems) become underscores.
func nodeDirName(peer string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, peer)
	return "node-" + mapped
}

// adoptKey is the idempotency key under which a dead peer's job is
// re-created on the adopter. Keyed by (peer, original id), it dedups
// re-adoption across adopter restarts: replaying the adopter's own WAL
// re-arms the key, so a second adoption pass finds the existing job.
func adoptKey(peer, jobID string) string {
	return "adopt/" + peer + "/" + jobID
}

// adoptFrom replays the dead peer's journal and takes over its
// unfinished jobs: each pending job (interrupted running jobs replay as
// pending) is re-created locally under an idempotency key derived from
// (peer, original id) — so re-adoption after an adopter restart dedups
// — with its kernel checkpoints carried over, its graph imported from
// the dead store by hardlink-or-copy, and a fence journaled into the
// dead peer's WAL (canceled, naming this node as the adopter) so a
// rebooted peer neither re-runs the job nor answers for it (resolve
// forwards its id here).
// The adopted jobs then go through the ordinary replay launcher, which
// resumes their kernels from the carried checkpoints.
// It runs on every sweep, on every member, but the lock decides: a live
// peer holds it, and a pass over a fenced journal finds nothing pending.
func (c *coordinator) adoptFrom(dead *cluster.Peer) {
	s := c.s
	dir := filepath.Join(s.cfg.DataDir, nodeDirName(dead.Name))
	if _, err := os.Stat(dir); err != nil {
		return // no journal: the peer never started, or no shared root
	}
	st, err := jobstore.TryOpen(dir)
	if errors.Is(err, jobstore.ErrLocked) {
		return // the owner is alive
	}
	if err != nil {
		s.log().Error("adopting peer WAL", "peer", dead.Name, "err", err)
		return
	}
	defer st.Close()

	var adoptedJobs []*jobstore.JobRecord
	for _, rec := range st.Jobs() {
		if rec.State != jobstore.Pending {
			continue
		}
		var req ClusterRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			s.log().Error("adopting job: bad request record", "peer", dead.Name, "job", rec.ID, "err", err)
			continue
		}
		if _, ok := s.lookupGraph(req.GraphID); !ok {
			if err := c.importGraphFrom(st, req.GraphID); err != nil {
				// Adopt anyway: the job will fail with "unknown graph",
				// which is visible, instead of silently vanishing.
				s.log().Error("adopting job: importing graph", "peer", dead.Name,
					"job", rec.ID, "graph", req.GraphID, "err", err)
			}
		}
		// The dead record's trace id (journaled when the job started
		// there) becomes the adopted run's link: the new trace's root
		// span carries link_trace_id pointing at the original lineage.
		job, existing, err := s.jobs.Admit(jobstore.JobRecord{
			IdempotencyKey: adoptKey(dead.Name, rec.ID),
			Request:        rec.Request,
			Checkpoints:    rec.Checkpoints,
			LinkTraceID:    rec.TraceID,
		})
		if err != nil {
			s.log().Error("adopting job", "peer", dead.Name, "job", rec.ID, "err", err)
			continue
		}
		// Fence only after the local copy is durable: a crash between
		// the two writes double-runs (deterministic, so harmless) rather
		// than losing the job.
		if err := st.Fence(rec.ID, c.self.Name); err != nil {
			s.log().Error("fencing adopted job", "peer", dead.Name, "job", rec.ID, "err", err)
		}
		if existing {
			continue
		}
		s.metrics.jobsAdopted.Inc()
		s.log().Info("adopted job", "peer", dead.Name, "job", rec.ID,
			"as", job.ID, "checkpoints", len(job.Checkpoints))
		adoptedJobs = append(adoptedJobs, job)
	}
	if len(adoptedJobs) > 0 {
		go s.resumeJobs(adoptedJobs)
	}
}

// importGraphFrom copies a graph's binary CSR file out of a dead
// peer's store into this node's (hardlink when possible; the source is
// left in place for the peer's eventual reboot), then maps and
// registers it.
func (c *coordinator) importGraphFrom(st *jobstore.Store, id string) error {
	src := st.GraphCSRPath(id)
	if _, err := os.Stat(src); err != nil {
		return fmt.Errorf("dead peer has no file for %s: %w", id, err)
	}
	dst, err := c.s.jobs.ImportGraphFile(id, src)
	if err != nil {
		return err
	}
	rg, err := openGraphFile(bootContext(), dst)
	if err != nil {
		return fmt.Errorf("mapping imported graph: %w", err)
	}
	c.s.addGraph(rg)
	return nil
}

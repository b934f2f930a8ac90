package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"symcluster/internal/cluster"
	"symcluster/internal/jobstore"
)

// WAL adoption: when the cluster shares a durable data root (-data-dir),
// the death of a peer triggers a takeover of its journal. The
// ring-elected adopter replays the dead node's WAL, re-creates its
// unfinished jobs locally (checkpoints included, so kernels resume
// mid-run), and fences the dead journal so a rebooted peer does not
// re-run adopted work. See DESIGN.md §14.

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

// forgetAdoption clears the adopted flag when a peer recovers, so its
// next death triggers a fresh adoption pass.
func (c *coordinator) forgetAdoption(peer string) {
	c.adoptMu.Lock()
	delete(c.adopted, peer)
	c.adoptMu.Unlock()
}

// adoptIfNeeded runs on every failed probe of a down peer and decides
// whether this node must adopt the peer's WAL. Three gates:
//
//   - The probe failed at the transport level (refused, timeout). A
//     peer answering 503 is alive — draining or overloaded — and will
//     resume its own jobs; opening a live peer's WAL would mean two
//     writers on one file.
//   - This node is durable and the ring elects it: the adopter is the
//     healthy owner of HashString(deadPeerName), so every surviving
//     node computes the same answer without coordination.
//   - The peer has not already been adopted this down period.
//
// Adoption failures (e.g. the dead node's WAL directory is on its way
// over a network filesystem) leave the flag unset, so the next probe
// retries.
func (c *coordinator) adoptIfNeeded(dead *cluster.Peer, probeErr error) {
	var pse *cluster.ProbeStatusError
	if errors.As(probeErr, &pse) {
		return
	}
	if !c.s.jobs.Durable() {
		return
	}
	owner, ok := c.ownerOf(cluster.HashString(dead.Name))
	if !ok || owner.Name != c.self.Name {
		return
	}
	c.adoptMu.Lock() // also serializes concurrent adoptFrom runs
	defer c.adoptMu.Unlock()
	if c.adopted[dead.Name] {
		return
	}
	if c.adoptFrom(dead) {
		c.adopted[dead.Name] = true
	}
}

// adoptFrom replays the dead peer's journal and takes over its
// unfinished jobs: each pending job (interrupted running jobs replay as
// pending) is re-created locally under an idempotency key derived from
// (peer, original id) — so re-adoption after an adopter restart dedups
// — with its kernel checkpoints carried over, its graph imported from
// the dead store by hardlink-or-copy, and a canceled marker journaled
// into the dead peer's WAL so a rebooted peer does not re-run the job.
// The adopted jobs then go through the ordinary replay launcher, which
// resumes their kernels from the carried checkpoints.
func (c *coordinator) adoptFrom(dead *cluster.Peer) bool {
	s := c.s
	dir := filepath.Join(s.cfg.DataDir, nodeDirName(dead.Name))
	if _, err := os.Stat(dir); err != nil {
		// No journal to adopt: the peer never started, or the cluster
		// does not share a data root. Nothing to retry.
		return true
	}
	st, err := jobstore.Open(dir)
	if err != nil {
		s.log().Error("adopting peer WAL", "peer", dead.Name, "err", err)
		return false
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
		if err := st.Finish(rec.ID, jobstore.Canceled, nil, "adopted by "+c.self.Name, nil, nil); err != nil {
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
	return true
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

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/obs"
)

// The cluster status plane and cross-node trace assembly:
//
//   - GET /v1/jobs/{id}/stats     — a finished job's resource accounting
//   - GET /v1/cluster/status      — federated per-node status report
//   - GET /internal/v1/status     — one node's cheap self-report
//   - GET /internal/v1/traces/{id}— one node's retained hop segments
//
// The federated report never blocks on a dead peer: every peer's row is
// fetched concurrently under a short per-peer timeout, degrading to
// name + "down" + error when the peer does not answer.

// internalStatusPath is the peer-to-peer self-report route.
const internalStatusPath = "/internal/v1/status"

// internalTracesPrefix is the peer-to-peer trace-segment route; append
// the path-escaped trace id.
const internalTracesPrefix = "/internal/v1/traces/"

// statusFanoutTimeout bounds each per-peer fetch of the status plane
// (status rows and trace segments). It is deliberately much shorter
// than the proxy timeout: the report degrades instead of waiting.
const statusFanoutTimeout = 2 * time.Second

// handleJobStats serves GET /v1/jobs/{id}/stats: the job's resource
// accounting, present once the job finished (the snapshot is taken at
// completion and, in durable mode, journaled with the finish record, so
// it answers across restarts).
func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if len(job.Stats) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %q has no stats yet (state %s)", job.ID, job.State))
		return
	}
	writeJSON(w, http.StatusOK, job.Stats)
}

// nodeStatus assembles this node's own status row, reading the same
// live sources as the /metrics exposition.
func (s *Server) nodeStatus() NodeStatus {
	ns := NodeStatus{
		State:          "up",
		Version:        obs.Version,
		UptimeSeconds:  time.Since(s.startTime).Seconds(),
		Draining:       s.Draining(),
		QueueDepth:     s.pool.QueueDepth(),
		MappedCSRBytes: csr.MappedBytes(),
		WALBytes:       s.jobs.LogBytes(),
		Jobs:           s.jobs.Counts(),
		JobsAdopted:    int64(s.metrics.jobsAdopted.Value()),
	}
	if s.coord != nil {
		ns.Name = s.coord.self.Name
	}
	return ns
}

// handleInternalStatus serves a peer's status fan-out: this node's own
// row, cheap enough to answer on every poll.
func (s *Server) handleInternalStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// handleInternalTraces serves the hop segments of one distributed trace
// that this node's ring retains, for a peer assembling the stitched
// tree.
func (s *Server) handleInternalTraces(w http.ResponseWriter, r *http.Request) {
	segs := s.traces.ByTraceID(r.PathValue("id"))
	if segs == nil {
		segs = []*obs.SpanNode{}
	}
	writeJSON(w, http.StatusOK, segs)
}

// handleClusterStatus serves GET /v1/cluster/status. In single-node
// mode the report is just this node; in cluster mode it federates one
// row per member.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	self := s.nodeStatus()
	status := ClusterStatus{Nodes: []NodeStatus{self}}
	if s.coord != nil {
		status.Self = s.coord.self.Name
		status.Nodes = s.coord.federateStatus(r.Context(), self)
	}
	writeJSON(w, http.StatusOK, status)
}

// federateStatus builds one row per cluster member: self locally, every
// peer by a concurrent fetch under the fan-out timeout.
func (c *coordinator) federateStatus(ctx context.Context, self NodeStatus) []NodeStatus {
	peers := c.ring.Peers()
	rows := make([]NodeStatus, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if p == c.self {
			rows[i] = self
			continue
		}
		wg.Add(1)
		go func(i int, p *cluster.Peer) {
			defer wg.Done()
			rows[i] = c.fetchStatus(ctx, p)
		}(i, p)
	}
	wg.Wait()
	return rows
}

// fetchPeer GETs path from one peer and decodes at most limit bytes of
// its 200 answer into out — the one fetch under both fan-outs. The
// per-peer timeout is min(statusFanoutTimeout, caller's remaining
// budget): WithTimeout never extends past the parent deadline, so a
// caller with 300ms left gets a 300ms fan-out, not a 2s one, and one
// whose deadline already passed skips the doomed fetch.
func (c *coordinator) fetchPeer(ctx context.Context, p *cluster.Peer, path string, limit int64, out any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, statusFanoutTimeout)
	defer cancel()
	resp, err := c.client.Do(ctx, http.MethodGet, p.URL+path, nil, nil, 0)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch failed (code %d)", resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out)
}

// fetchStatus pulls one peer's self-report, degrading the row to
// name + "down" + error when the peer does not answer within the
// fan-out timeout.
func (c *coordinator) fetchStatus(ctx context.Context, p *cluster.Peer) NodeStatus {
	var ns NodeStatus
	if err := c.fetchPeer(ctx, p, internalStatusPath, 1<<20, &ns); err != nil {
		return NodeStatus{Name: p.Name, State: "down", Error: err.Error()}
	}
	ns.Name = p.Name
	ns.State = "up"
	return ns
}

// mergeTrace assembles the stitched tree of one distributed trace: the
// local tree plus whatever hop segments the peers retain for the same
// trace id, fetched concurrently under the fan-out timeout. The merge
// leaves the stored job trace as it was. Peers that evicted their
// segment — or died — just mean a shallower tree.
func (c *coordinator) mergeTrace(ctx context.Context, traceID string, local *obs.SpanNode) *obs.SpanNode {
	segments := []*obs.SpanNode{local}
	peers := c.ring.Peers()
	remote := make([][]*obs.SpanNode, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if p == c.self {
			continue
		}
		wg.Add(1)
		go func(i int, p *cluster.Peer) {
			defer wg.Done()
			remote[i] = c.fetchTraceSegments(ctx, p, traceID)
		}(i, p)
	}
	wg.Wait()
	for _, segs := range remote {
		segments = append(segments, segs...)
	}
	return obs.MergeSegments(segments)
}

// fetchTraceSegments pulls one peer's retained segments of a trace;
// failures degrade to no segments rather than failing the merge.
func (c *coordinator) fetchTraceSegments(ctx context.Context, p *cluster.Peer, traceID string) []*obs.SpanNode {
	var segs []*obs.SpanNode
	if err := c.fetchPeer(ctx, p, internalTracesPrefix+url.PathEscape(traceID), 8<<20, &segs); err != nil {
		c.s.log().Debug("fetching trace segments", "peer", p.Name, "trace", traceID, "err", err)
		return nil
	}
	return segs
}

package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"symcluster/internal/csr"
)

// Chunked graph upload: graphs too large for one POST /v1/graphs body
// arrive as a sequence of requests against an upload session. Each
// append streams its chunk into a bounded-memory ingester (parsed edges
// spill to sorted runs under the spill dir once the buffer fills), so
// the daemon's resident cost of an upload is the ingest buffer, not the
// graph. Finalize merges the runs into a binary CSR file, memory-maps
// it, and registers the graph without the adjacency ever living on the
// heap — the natural companion of out-of-core clustering, which reads
// the same file.
//
//	POST   /v1/graphs/uploads               → 201 UploadRef
//	POST   /v1/graphs/uploads/{id}          → 202 UploadStatus (chunk in body)
//	POST   /v1/graphs/uploads/{id}/finalize → 201 UploadResult
//	DELETE /v1/graphs/uploads/{id}          → 204
//
// Chunks may split lines at any byte offset. A parse error poisons the
// session (the offending line is reported); it must be aborted and
// restarted. Sessions are single-writer: concurrent appends to the same
// session serialize, order among them unspecified.

// uploadSession is one in-flight chunked upload.
type uploadSession struct {
	id  string
	dir string // scratch dir owning ingest state and the finalized file

	// lastActive is the unix-nano time of the last client request against
	// the session; the TTL sweeper reaps sessions idle past -upload-ttl
	// (an abandoned upload otherwise pins spill files forever).
	lastActive atomic.Int64

	mu     sync.Mutex
	ing    *csr.Ingester
	failed error // first ingest error; poisons the session
	done   bool
}

// touch records client activity for the TTL sweeper.
func (sess *uploadSession) touch() { sess.lastActive.Store(time.Now().UnixNano()) }

// abort releases the session's ingest state and scratch. Idempotent;
// callers hold no locks.
func (sess *uploadSession) abort() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.done = true
	sess.ing.Abort()
	if sess.dir != "" {
		os.RemoveAll(sess.dir)
		sess.dir = ""
	}
}

// handleUploadCreate opens a session: POST /v1/graphs/uploads.
func (s *Server) handleUploadCreate(w http.ResponseWriter, r *http.Request) {
	dir, err := os.MkdirTemp(s.cfg.SpillDir, "symclusterd-upload-*")
	if err != nil {
		refuse(w, fmt.Errorf("creating upload scratch: %w", err))
		return
	}
	ing, err := csr.NewIngester(dir, s.cfg.IngestMemBytes)
	if err != nil {
		os.RemoveAll(dir)
		refuse(w, fmt.Errorf("creating ingester: %w", err))
		return
	}
	ing.SpareRows = s.spareRows()
	sess := &uploadSession{
		id:  "u-" + strconv.FormatInt(s.uploadSeq.Add(1), 10),
		dir: dir,
		ing: ing,
	}
	sess.touch()
	s.uploadMu.Lock()
	s.uploads[sess.id] = sess
	s.uploadMu.Unlock()
	// The id is qualified with this node's name in cluster mode: the
	// session (ingest buffer, spill runs) lives only here, so every
	// later chunk must route back.
	id := s.qualifyID(sess.id)
	writeJSON(w, http.StatusCreated, UploadRef{
		UploadID: id,
		Location: "/v1/graphs/uploads/" + id,
	})
}

// lookupUpload fetches a session by id.
func (s *Server) lookupUpload(id string) (*uploadSession, bool) {
	s.uploadMu.Lock()
	defer s.uploadMu.Unlock()
	sess, ok := s.uploads[id]
	return sess, ok
}

// dropUpload removes a session from the registry (it may already be
// gone — finalize and abort race benignly).
func (s *Server) dropUpload(id string) {
	s.uploadMu.Lock()
	delete(s.uploads, id)
	s.uploadMu.Unlock()
}

// handleUploadAppend streams one chunk into the session:
// POST /v1/graphs/uploads/{id} with the raw edge-list bytes as body.
func (s *Server) handleUploadAppend(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupUpload(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q", r.PathValue("id")))
		return
	}
	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.usableLocked(); err != nil {
		refuse(w, err)
		return
	}
	buf := make([]byte, 256*1024)
	for {
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			if aerr := sess.ing.Append(buf[:n]); aerr != nil {
				// A malformed line poisons the whole session: spill runs
				// already hold edges in arrival order, so there is no way
				// to un-append. The client aborts and restarts.
				sess.failed = aerr
				refuse(w, badRequest("ingesting chunk: %w", aerr))
				return
			}
		}
		if rerr != nil {
			var mbe *http.MaxBytesError
			if errors.As(rerr, &mbe) {
				// The chunk overflowed the per-request body cap. Nothing
				// is lost — the bytes read so far were ingested — but the
				// client must resend the remainder as further chunks.
				refuse(w, fmt.Errorf("chunk exceeds per-request cap (%d bytes); split it and continue: %w", s.cfg.MaxBodyBytes, mbe))
				return
			}
			if errors.Is(rerr, io.EOF) {
				break
			}
			refuse(w, badRequest("reading chunk: %w", rerr))
			return
		}
	}
	bytesIn, edges := sess.ing.Stats()
	writeJSON(w, http.StatusAccepted, UploadStatus{
		UploadID:      s.qualifyID(sess.id),
		BytesReceived: bytesIn,
		Edges:         edges,
	})
}

// usableLocked reports whether the session can accept more input.
func (sess *uploadSession) usableLocked() error {
	if sess.done {
		return &apiError{code: http.StatusConflict, err: fmt.Errorf("upload %s already finalized or aborted", sess.id)}
	}
	if sess.failed != nil {
		return &apiError{code: http.StatusConflict,
			err: fmt.Errorf("upload %s failed earlier (%v); abort and restart", sess.id, sess.failed)}
	}
	return nil
}

// handleUploadFinalize merges the session into a binary CSR file, maps
// it and registers the graph: POST /v1/graphs/uploads/{id}/finalize.
func (s *Server) handleUploadFinalize(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupUpload(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q", r.PathValue("id")))
		return
	}
	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.usableLocked(); err != nil {
		refuse(w, err)
		return
	}
	sess.done = true
	s.dropUpload(sess.id)

	// From here the session's scratch directory belongs to this request:
	// removed on failure, otherwise handed on with the graph.
	dir := sess.dir
	sess.dir = ""
	ctx := r.Context()
	dst := filepath.Join(dir, "graph.csr")
	info, err := sess.ing.Finalize(ctx, dst)
	if err != nil {
		os.RemoveAll(dir)
		refuse(w, badRequest("finalizing upload: %w", err))
		return
	}
	rg, err := openGraphFile(ctx, dst)
	if err != nil {
		os.RemoveAll(dir)
		refuse(w, &apiError{code: http.StatusInternalServerError, err: fmt.Errorf("mapping ingested graph: %w", err)})
		return
	}
	rg.ownDir = dir

	// In cluster mode the fingerprint — unknowable until the merge just
	// now — may place the graph on another shard, and the finished CSR
	// file is shipped to its owner so cache and WAL locality hold. A
	// forwarded finalize is not pinned here: that hop was upload-id
	// affinity (back to the session's creator), not graph ownership, so
	// the creator still owes the relocation. No loop risk: the push
	// lands on the internal CSR endpoint, which registers locally.
	ginfo, err := s.placeGraph(ctx, rg, false)
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, UploadResult{
		Graph:       ginfo,
		Edges:       info.Edges,
		BytesIn:     info.BytesIn,
		SpillRuns:   info.SpillRuns,
		MergedBytes: info.MergedBytes,
	})
}

// sweepUploads periodically reaps upload sessions idle past UploadTTL,
// releasing their ingest buffers and spill files. It runs for the life
// of the server when -upload-ttl is set.
func (s *Server) sweepUploads() {
	interval := s.cfg.UploadTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.expireUploads(time.Now())
		}
	}
}

// expireUploads reaps every session idle at or past the TTL. Split from
// the sweep loop so tests can trigger a pass synchronously.
func (s *Server) expireUploads(now time.Time) {
	var expired []*uploadSession
	s.uploadMu.Lock()
	for id, sess := range s.uploads {
		if now.Sub(time.Unix(0, sess.lastActive.Load())) >= s.cfg.UploadTTL {
			delete(s.uploads, id)
			expired = append(expired, sess)
		}
	}
	s.uploadMu.Unlock()
	for _, sess := range expired {
		sess.abort()
		s.metrics.uploadsExpired.Inc()
		s.log().Info("expired idle upload session", "upload", sess.id,
			"idle", now.Sub(time.Unix(0, sess.lastActive.Load())).String())
	}
}

// handleUploadAbort discards a session: DELETE /v1/graphs/uploads/{id}.
// Aborting an unknown session is a 204 no-op, so retrying is safe.
func (s *Server) handleUploadAbort(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookupUpload(r.PathValue("id")); ok {
		s.dropUpload(sess.id)
		sess.abort()
	}
	w.WriteHeader(http.StatusNoContent)
}

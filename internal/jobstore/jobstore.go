// Package jobstore is symclusterd's job table: the one place async
// jobs live, whether or not they outlive the process. A Store holds
// every job record in memory — lifecycle state, the idempotency index,
// the id sequence, finished-job retention and TTL expiry — and, when
// opened on a data directory, journals every transition to a
// write-ahead log before applying it, together with the kernel
// checkpoints that let an interrupted run resume mid-iteration. On
// startup the log is replayed into the same table and interrupted work
// comes back pending. NewMemory returns the same table with no journal:
// every operation skips the append and only applies.
//
// Layout under the data directory:
//
//	wal           the job journal (framed records, see wal.go)
//	graphs/       one binary CSR file per registered graph (<id>.csr,
//	              written by internal/csr and moved in atomically), so
//	              replayed jobs can re-resolve their graph after a
//	              restart
//
// The WAL is length-prefixed and CRC32-framed; replay truncates any
// torn tail (a crash mid-append) at the last intact frame, so a crash
// can lose at most the record being written — it can never corrupt or
// resurrect a job. Records are JSON inside the frame: the volume is a
// handful of records per job, so debuggability beats density.
//
// Compaction rewrites the log as one snapshot record per live job once
// the file grows past CompactThreshold, bounding disk usage under
// long-running churn. The rewrite goes to a temporary file that is
// fsync'd and renamed over the log, so a crash mid-compaction leaves
// either the old log or the new one, never a mix.
//
// Fault injection: the "jobstore.append" site fires before every WAL
// append and "jobstore.compact" before every compaction rewrite, so
// chaos tests can exercise torn writes and failed compactions.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/obs"
)

// State is the lifecycle phase of a job: pending (queued) → running →
// done | failed | canceled. A drain-preempted running job goes back to
// pending instead, so the next boot finishes it.
type State string

// Job lifecycle states, as served and as persisted.
const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

func (s State) terminal() bool { return s == Done || s == Failed || s == Canceled }

// Checkpoint is one kernel checkpoint: the serialized mid-iteration
// state of a compute kernel ("mcl" flow matrix, "walk" π vector).
type Checkpoint struct {
	// Seq is which invocation of the kernel within the job produced the
	// checkpoint (1-based): a job may run the same kernel more than once
	// (e.g. two power-iteration solves), and a checkpoint must only be
	// restored into the invocation that wrote it.
	Seq int `json:"seq"`
	// Iter is the number of kernel iterations completed at the moment of
	// the checkpoint; the restored run resumes there.
	Iter int `json:"iter"`
	// Blob is the kernel-defined serialized state.
	Blob []byte `json:"blob"`
}

// JobRecord is one job: what the table holds, what the WAL's create and
// snapshot records carry, and what every accessor returns a copy of.
type JobRecord struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// IdempotencyKey dedups retried submissions: a second Admit with the
	// same key returns this job instead of creating another.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Request is the original ClusterRequest JSON, replayed on startup
	// to rebuild the run.
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the ClusterResponse JSON of a done job, marshalled once
	// at finish: polls splice these bytes into the response, results
	// survive restarts, and idempotent retries of finished work are
	// answered without recomputing.
	Result   json.RawMessage `json:"result,omitempty"`
	Err      string          `json:"err,omitempty"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitempty"`
	Finished time.Time       `json:"finished,omitempty"`
	// TraceID is the distributed-trace id the job ran (or is running)
	// under, journaled at start. A surviving node that adopts this job
	// after a crash records it as the adopted run's trace link, so the
	// new trace still points back at the original lineage.
	TraceID string `json:"trace_id,omitempty"`
	// LinkTraceID is the originating trace of an adopted job (the dead
	// owner's TraceID), carried so the link survives adopter restarts.
	LinkTraceID string `json:"link_trace_id,omitempty"`
	// Stats is the job's resource accounting (obs.JobStatsSnapshot
	// JSON), recorded at finish so per-job cost attribution survives
	// restarts alongside the result.
	Stats json.RawMessage `json:"stats,omitempty"`
	// Checkpoints holds the latest checkpoint per kernel for a job that
	// has not finished; cleared on finish. Only a journaled store
	// collects them.
	Checkpoints map[string]Checkpoint `json:"checkpoints,omitempty"`
	// Trace is the run's span tree, retained for done, failed and
	// canceled jobs alike (an errored run's trace is what you want when
	// debugging why it errored). In-memory only: traces do not survive
	// restarts.
	Trace *obs.SpanNode `json:"-"`
}

// record is one transition of the table and one WAL entry. Op selects
// which fields are meaningful.
type record struct {
	// Op is "create", "start", "requeue", "checkpoint", "finish",
	// "drop", or "snapshot" (compaction's whole-job form).
	Op   string    `json:"op"`
	Time time.Time `json:"time,omitempty"`
	// Job carries the full record for create and snapshot.
	Job *JobRecord `json:"job,omitempty"`
	// ID addresses every other op.
	ID     string          `json:"id,omitempty"`
	Kernel string          `json:"kernel,omitempty"`
	Ckpt   *Checkpoint     `json:"ckpt,omitempty"`
	State  State           `json:"state,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
	// Trace rides the start op; Stats rides the finish op.
	Trace string          `json:"trace,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
	// spans is the finish op's span tree; it never reaches the log.
	spans *obs.SpanNode
}

// Store is the job table. All methods are safe for concurrent use, and
// every accessor returns copies, so callers never share memory with
// the table.
type Store struct {
	// CompactThreshold is the log size in bytes past which a finish
	// triggers a compaction (defaults to 4 MiB). Retain caps the
	// finished jobs kept, the oldest-finished evicted first (<= 0: no
	// cap), and finished jobs older than TTL are expired lazily on
	// access, so expiry needs no timer goroutine (<= 0: never). All
	// three are set before concurrent use.
	CompactThreshold int64
	Retain           int
	TTL              time.Duration

	mu       sync.Mutex
	dir      string // "" for a memory-only store
	w        *wal
	now      func() time.Time // injectable for deterministic TTL tests
	jobs     map[string]*JobRecord
	order    []string          // creation order, for deterministic replay
	byKey    map[string]string // idempotency key → job id
	finished []string          // finished job ids, oldest-finished first
	maxSeq   int64             // highest job-NNNNNN suffix ever seen

	appends, compactions, expired, replayed, ckpts int64
}

func newStore(dir string, w *wal) *Store {
	return &Store{
		CompactThreshold: 4 << 20,
		dir:              dir,
		w:                w,
		now:              time.Now,
		jobs:             make(map[string]*JobRecord),
		byKey:            make(map[string]string),
	}
}

// NewMemory returns a store with no journal: jobs die with the process,
// which graceful drain makes visible by finishing in-flight work first.
func NewMemory() *Store { return newStore("", &wal{}) }

// Open opens (creating if needed) the store rooted at dir, replays the
// WAL — truncating any torn tail — and returns the store ready for
// appends: finished jobs come back with their results, idempotency
// keys re-arm, and the id sequence resumes past every replayed job.
// Jobs that were running when the previous process died are re-marked
// pending: the caller re-enqueues them (PendingJobs), they are not
// silently lost.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: creating data dir: %w", err)
	}
	w, payloads, err := openWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	s := newStore(dir, w)
	for _, p := range payloads {
		var rec record
		if err := json.Unmarshal(p, &rec); err != nil {
			// A frame that passes its checksum but does not decode is
			// treated exactly like a torn tail: stop replaying here.
			// Better to lose the suffix than resurrect a corrupt job.
			break
		}
		s.applyLocked(&rec)
	}
	// A compacted log lists jobs in creation order; retention evicts in
	// the order they finished, as the live process did.
	sort.SliceStable(s.finished, func(a, b int) bool {
		return s.jobs[s.finished[a]].Finished.Before(s.jobs[s.finished[b]].Finished)
	})
	interrupted := false
	for _, j := range s.jobs {
		if j.State == Running {
			j.State = Pending
			interrupted = true
		}
		if j.State == Pending {
			s.replayed++
		}
	}
	// Compact on open when the log has grown well past its live state
	// (or if interrupted-job states need rewriting anyway and the log
	// is already over threshold).
	if s.w.bytes > s.CompactThreshold || (interrupted && s.w.bytes > s.CompactThreshold/2) {
		if err := s.compactLocked(); err != nil {
			s.w.close()
			return nil, err
		}
	}
	return s, nil
}

// Durable reports whether transitions are journaled to a WAL. It gates
// what only makes sense with one: the graph files, checkpoint sinks
// and drain preemption.
func (s *Store) Durable() bool { return s.dir != "" }

// targetLocked returns the job rec would change, or nil when rec is a
// no-op: an unknown id, or anything but a drop addressed to a job that
// already finished — a finished job only ever leaves the table.
func (s *Store) targetLocked(rec *record) *JobRecord {
	j := s.jobs[rec.ID]
	if j == nil || (rec.Op != "drop" && j.State.terminal()) {
		return nil
	}
	return j
}

// applyLocked folds one record, replayed or just committed, into the
// table and its indexes. It is the only definition of what each
// transition does to a job.
func (s *Store) applyLocked(rec *record) {
	if rec.Op == "create" || rec.Op == "snapshot" {
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		j := copyRecord(rec.Job)
		if j.State == "" {
			j.State = Pending
		}
		s.removeLocked(j.ID)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.IdempotencyKey != "" {
			s.byKey[j.IdempotencyKey] = j.ID
		}
		if j.State.terminal() {
			s.finished = append(s.finished, j.ID)
		}
		s.maxSeq = max(s.maxSeq, jobSeq(j.ID))
		return
	}
	s.maxSeq = max(s.maxSeq, jobSeq(rec.ID))
	j := s.targetLocked(rec)
	if j == nil {
		return
	}
	switch rec.Op {
	case "start":
		j.State = Running
		j.Started = rec.Time
		if rec.Trace != "" {
			j.TraceID = rec.Trace
		}
	case "requeue":
		j.State = Pending
		j.Started = time.Time{}
	case "checkpoint":
		if rec.Ckpt != nil {
			if j.Checkpoints == nil {
				j.Checkpoints = make(map[string]Checkpoint)
			}
			j.Checkpoints[rec.Kernel] = *rec.Ckpt
		}
	case "finish":
		j.State = rec.State
		j.Result = rec.Result
		j.Err = rec.Err
		j.Stats = rec.Stats
		j.Trace = rec.spans
		j.Finished = rec.Time
		j.Checkpoints = nil // resumable state is dead weight now
		s.finished = append(s.finished, j.ID)
	case "drop":
		s.removeLocked(j.ID)
	}
}

// removeLocked takes a job out of the table and every index.
func (s *Store) removeLocked(id string) {
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	delete(s.jobs, id)
	if s.byKey[j.IdempotencyKey] == id {
		delete(s.byKey, j.IdempotencyKey)
	}
	s.order = without(s.order, id)
	s.finished = without(s.finished, id)
}

func without(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// jobSeq parses the numeric suffix of a "job-NNNNNN" id, so the id
// sequence resumes past every replayed job after a restart.
func jobSeq(id string) int64 {
	suffix, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(suffix, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// commitLocked is the only way a transition enters the table:
// journal-first, so memory never runs ahead of disk and a failed append
// leaves the job exactly as it was. Two ops apply even when the append
// fails and hand the error back for logging: finish, because clients
// must see the outcome even if the disk is failing (the next compaction
// writes it), and drop, because the job is merely resurrected at the
// next boot and evicted or expired again then.
func (s *Store) commitLocked(rec *record) error {
	if rec.Job == nil && s.targetLocked(rec) == nil {
		return nil
	}
	err := s.journalLocked(rec)
	if err != nil && rec.Op != "finish" && rec.Op != "drop" {
		return err
	}
	s.applyLocked(rec)
	return err
}

// journalLocked appends one record to the WAL (fault-injectable at
// "jobstore.append"); a store without a journal has nothing to append.
func (s *Store) journalLocked(rec *record) error {
	if !s.Durable() {
		return nil
	}
	if err := faultinject.Fire("jobstore.append"); err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encoding record: %w", err)
	}
	if err := s.w.append(payload); err != nil {
		return err
	}
	s.appends++
	return nil
}

// Create enters j as given — the caller sets ID, Created and State
// (which defaults to pending). Servers submit through Admit instead.
func (s *Store) Create(j *JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(&record{Op: "create", Job: j})
}

// Admit creates the next pending job from tmpl, which carries the
// request JSON, the idempotency key and — for a job taken over from a
// dead peer's WAL — the checkpoints and trace link carried over, so an
// adopter restart resumes from the same point; the store allocates the
// id and stamps Created. When a live job (one replayed from the WAL
// included) already holds a non-empty key, that job is returned with
// existing == true and nothing is created: duplicate retries and
// re-adoptions never produce two jobs.
func (s *Store) Admit(tmpl JobRecord) (job *JobRecord, existing bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if id, ok := s.byKey[tmpl.IdempotencyKey]; ok {
		return copyRecord(s.jobs[id]), true, nil
	}
	tmpl.ID = fmt.Sprintf("job-%06d", s.maxSeq+1)
	tmpl.State = Pending
	tmpl.Created = s.now()
	if err := s.commitLocked(&record{Op: "create", Job: &tmpl}); err != nil {
		return nil, false, err
	}
	return copyRecord(s.jobs[tmpl.ID]), false, nil
}

// LookupByKey resolves an idempotency key to the id of the live job
// holding it — the coordinator's route from a dead peer's job id to
// the local adopted copy.
func (s *Store) LookupByKey(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	id, ok := s.byKey[key]
	return id, ok
}

// Start moves a job to running, recording the trace id the run joined
// (empty is allowed; the last non-empty one wins across requeue/resume
// cycles) — which is what lets a surviving peer link an adopted copy
// back to the original trace.
func (s *Store) Start(id, traceID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(&record{Op: "start", ID: id, Trace: traceID, Time: s.now()})
}

// Requeue moves a preempted job back to pending (graceful drain
// checkpointed it; the next boot finishes it).
func (s *Store) Requeue(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(&record{Op: "requeue", ID: id, Time: s.now()})
}

// SaveCheckpoint journals the latest checkpoint of one kernel
// invocation within a job, replacing any previous checkpoint for that
// kernel. Without a journal it is a successful no-op: nothing could
// resume from the blob, so it is not retained.
func (s *Store) SaveCheckpoint(id, kernel string, ck Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Durable() {
		return nil
	}
	if err := s.commitLocked(&record{Op: "checkpoint", ID: id, Kernel: kernel, Ckpt: &ck}); err != nil {
		return err
	}
	s.ckpts++
	return nil
}

// Finish records the terminal state of a job (done/failed/canceled)
// with its result or error, its resource-accounting snapshot and its
// span tree, evicts the oldest-finished jobs past Retain, then compacts
// if the log has outgrown its threshold — finishes are where checkpoint
// weight becomes garbage. A non-nil error means the journal is behind
// the table (see commitLocked), not that the outcome was lost.
func (s *Store) Finish(id string, state State, result json.RawMessage, errMsg string, stats json.RawMessage, trace *obs.SpanNode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.commitLocked(&record{Op: "finish", ID: id, State: state, Result: result, Err: errMsg, Stats: stats, spans: trace, Time: s.now()})
	for s.Retain > 0 && len(s.finished) > s.Retain {
		err = errors.Join(err, s.commitLocked(&record{Op: "drop", ID: s.finished[0]}))
	}
	if s.CompactThreshold > 0 && s.w.bytes > s.CompactThreshold {
		err = errors.Join(err, s.compactLocked())
	}
	return err
}

// expireLocked drops finished jobs whose TTL has lapsed. Called with
// the mutex held from the accessors, at one time comparison per
// retained job.
func (s *Store) expireLocked() {
	if s.TTL <= 0 {
		return
	}
	cutoff := s.now().Add(-s.TTL)
	for i := 0; i < len(s.finished); {
		id := s.finished[i]
		if !s.jobs[id].Finished.Before(cutoff) {
			i++
			continue
		}
		_ = s.commitLocked(&record{Op: "drop", ID: id}) // applied regardless; see commitLocked
		s.expired++
	}
}

// Snapshot returns a copy of one job, or false when the id is unknown
// (never created, evicted by retention, or expired).
func (s *Store) Snapshot(id string) (*JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return copyRecord(j), true
}

// Jobs returns a copy of every live job in creation order.
func (s *Store) Jobs() []*JobRecord {
	return s.selectJobs(func(*JobRecord) bool { return true })
}

// PendingJobs returns the pending jobs in creation order — the replay
// surface the server re-enqueues at startup.
func (s *Store) PendingJobs() []*JobRecord {
	return s.selectJobs(func(j *JobRecord) bool { return j.State == Pending })
}

func (s *Store) selectJobs(keep func(*JobRecord) bool) []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*JobRecord
	for _, id := range s.order {
		if j := s.jobs[id]; keep(j) {
			out = append(out, copyRecord(j))
		}
	}
	return out
}

func copyRecord(j *JobRecord) *JobRecord {
	c := *j
	if j.Checkpoints != nil {
		c.Checkpoints = make(map[string]Checkpoint, len(j.Checkpoints))
		for k, v := range j.Checkpoints {
			c.Checkpoints[k] = v
		}
	}
	return &c
}

// Counts returns the number of jobs per state, for /metrics.
func (s *Store) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	counts := make(map[State]int, 5)
	for _, j := range s.jobs {
		counts[j.State]++
	}
	return counts
}

// Pending returns the number of jobs not yet finished, for drain.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs) - len(s.finished)
}

// Compact rewrites the log as one snapshot record per live job.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked writes the snapshot to wal.compacting, fsyncs it, and
// renames it over the log — crash-atomic on POSIX filesystems. The
// "jobstore.compact" fault site fires before any byte is written, and
// any error aborts with the old log intact. Like the append it
// rewrites, it is nothing to a store without a journal.
func (s *Store) compactLocked() error {
	if !s.Durable() {
		return nil
	}
	if err := faultinject.Fire("jobstore.compact"); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	recs := make([]*record, 0, len(s.order)+1)
	for _, id := range s.order {
		recs = append(recs, &record{Op: "snapshot", Job: s.jobs[id]})
	}
	// Dropped jobs leave no snapshot, and the id sequence must not fall
	// back with them — a restart would hand a polled id to a new job.
	// A drop of the highest id ever allocated changes nothing on replay
	// except that high-water mark.
	if hw := fmt.Sprintf("job-%06d", s.maxSeq); s.maxSeq > 0 && s.jobs[hw] == nil {
		recs = append(recs, &record{Op: "drop", ID: hw})
	}
	tmpPath := filepath.Join(s.dir, "wal.compacting")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	nw := &wal{f: tmp, path: tmpPath}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return abort(fmt.Errorf("jobstore: compact: %w", err))
		}
		if err := nw.append(payload); err != nil {
			return abort(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("jobstore: compact: %w", err))
	}
	walPath := filepath.Join(s.dir, "wal")
	if err := os.Rename(tmpPath, walPath); err != nil {
		return abort(fmt.Errorf("jobstore: compact: %w", err))
	}
	syncDir(s.dir)
	s.w.close()
	nw.path = walPath
	s.w = nw
	s.compactions++
	return nil
}

// syncDir fsyncs a directory so a just-renamed file is durable. Errors
// are ignored: the rename already happened and some filesystems refuse
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close releases the WAL handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.close()
}

// counter reads one of the store's tallies under the mutex.
func (s *Store) counter(v *int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *v
}

// LogBytes returns the current WAL size, for the wal-bytes gauge.
func (s *Store) LogBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.bytes
}

// Appends returns the number of records journaled since Open.
func (s *Store) Appends() int64 { return s.counter(&s.appends) }

// Compactions returns the number of compactions performed since Open.
func (s *Store) Compactions() int64 { return s.counter(&s.compactions) }

// Expired returns the number of finished jobs dropped by TTL expiry.
func (s *Store) Expired() int64 { return s.counter(&s.expired) }

// Replayed returns the number of jobs replayed as pending at Open.
func (s *Store) Replayed() int64 { return s.counter(&s.replayed) }

// CheckpointSaves returns the number of kernel checkpoints journaled.
func (s *Store) CheckpointSaves() int64 { return s.counter(&s.ckpts) }

// The graph-file half: binary CSR files under graphs/, beside the
// journal. Only a Durable store has a directory to keep them in.

// GraphCSRPath returns where graph id's binary CSR file lives (or
// would live). It does not check existence.
func (s *Store) GraphCSRPath(id string) string {
	return filepath.Join(s.dir, "graphs", id+".csr")
}

// checkGraphID rejects ids that would escape the graphs/ directory.
func checkGraphID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("jobstore: bad graph id %q", id)
	}
	return nil
}

// AdoptGraphFile moves an already-written binary CSR file (produced by
// a csr.Writer, so already fsynced) into the graphs/ directory as
// graph id. The rename preserves the inode: any live memory mapping of
// srcPath stays valid at the new path. An already-present destination
// wins — graph ids are content-derived — and srcPath is removed.
func (s *Store) AdoptGraphFile(id, srcPath string) (string, error) {
	if err := checkGraphID(id); err != nil {
		return "", err
	}
	dst := s.GraphCSRPath(id)
	if _, err := os.Stat(dst); err == nil {
		os.Remove(srcPath)
		return dst, nil
	}
	if err := os.Rename(srcPath, dst); err != nil {
		return "", fmt.Errorf("jobstore: adopting graph file: %w", err)
	}
	syncDir(filepath.Join(s.dir, "graphs"))
	return dst, nil
}

// ImportGraphFile brings a binary CSR file from another store into
// this one's graphs/ directory as graph id, leaving the source in
// place (the exporting store may come back and still own it — WAL
// adoption imports from a dead peer's directory). Same-filesystem
// imports hardlink (no copy, shared immutable content); across
// filesystems the file is copied through a tmp name and renamed so a
// crash never leaves a half-written graph under its final name. An
// already-present destination wins — graph ids are content-derived.
func (s *Store) ImportGraphFile(id, srcPath string) (string, error) {
	if err := checkGraphID(id); err != nil {
		return "", err
	}
	dst := s.GraphCSRPath(id)
	if _, err := os.Stat(dst); err == nil {
		return dst, nil
	}
	if err := os.Link(srcPath, dst); err == nil {
		syncDir(filepath.Join(s.dir, "graphs"))
		return dst, nil
	}
	src, err := os.Open(srcPath)
	if err != nil {
		return "", fmt.Errorf("jobstore: importing graph file: %w", err)
	}
	defer src.Close()
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "graphs"), id+".import-*")
	if err != nil {
		return "", fmt.Errorf("jobstore: importing graph file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, src); err != nil {
		tmp.Close()
		return "", fmt.Errorf("jobstore: copying graph file: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("jobstore: syncing imported graph: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("jobstore: closing imported graph: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return "", fmt.Errorf("jobstore: importing graph file: %w", err)
	}
	syncDir(filepath.Join(s.dir, "graphs"))
	return dst, nil
}

// ForEachGraphFile calls fn with the id and path of every persisted
// graph (<id>.csr; anything else in graphs/ is ignored), in file-name
// order. A fn error stops the walk.
func (s *Store) ForEachGraphFile(fn func(id, path string) error) error {
	dir := filepath.Join(s.dir, "graphs")
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("jobstore: listing graphs: %w", err)
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".csr")
		if e.IsDir() || !ok {
			continue
		}
		if err := fn(id, filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

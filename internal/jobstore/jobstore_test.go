package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symcluster/internal/faultinject"
)

func mustOpen(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func createJob(t testing.TB, s *Store, id, key string) {
	t.Helper()
	err := s.Create(&JobRecord{
		ID:             id,
		State:          Pending,
		IdempotencyKey: key,
		Request:        json.RawMessage(`{"algorithm":"mcl"}`),
		Created:        time.Unix(1000, 0),
	})
	if err != nil {
		t.Fatalf("Create(%s): %v", id, err)
	}
}

// dropJob commits a drop record for one job, as retention eviction and
// TTL expiry do.
func dropJob(t *testing.T, s *Store, id string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.commitLocked(&record{Op: "drop", ID: id}); err != nil {
		t.Fatalf("drop %s: %v", id, err)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "k1")
	if err := s.Start("job-000001", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("job-000001", "mcl", Checkpoint{Seq: 1, Iter: 7, Blob: []byte("flow")}); err != nil {
		t.Fatal(err)
	}
	createJob(t, s, "job-000002", "")
	if err := s.Finish("job-000002", Done, json.RawMessage(`{"k":3}`), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := mustOpen(t, dir)
	jobs := r.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	// The running job was interrupted: replay re-marks it pending with
	// its checkpoint intact.
	j1, ok := r.Snapshot("job-000001")
	if !ok || j1.State != Pending {
		t.Fatalf("job-000001 = %+v, %v; want pending", j1, ok)
	}
	ck, ok := j1.Checkpoints["mcl"]
	if !ok || ck.Iter != 7 || ck.Seq != 1 || string(ck.Blob) != "flow" {
		t.Fatalf("checkpoint = %+v, %v", ck, ok)
	}
	if j1.IdempotencyKey != "k1" {
		t.Fatalf("idempotency key = %q", j1.IdempotencyKey)
	}
	j2, _ := r.Snapshot("job-000002")
	if j2.State != Done || string(j2.Result) != `{"k":3}` {
		t.Fatalf("job-000002 = %+v", j2)
	}
	if j2.Checkpoints != nil {
		t.Fatal("finished job retained checkpoints")
	}
	// The id sequence resumes past every replayed job.
	if next, _, err := r.Admit(JobRecord{}); err != nil || next.ID != "job-000003" {
		t.Fatalf("next job = %+v, %v; want job-000003", next, err)
	}
}

// TestTornTailTruncation is the satellite torn-write drill: with a WAL
// holding intact records plus one final record, truncating the file at
// EVERY byte boundary of the last record must (a) never panic, (b)
// never resurrect the truncated record, and (c) keep every earlier
// record intact.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "")
	if err := s.Start("job-000001", ""); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal")
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The last record: job-000002's create.
	createJob(t, s, "job-000002", "")
	s.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(before) {
		t.Fatalf("wal did not grow: %d -> %d", len(before), len(full))
	}

	for cut := len(before); cut < len(full); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			tdir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(tdir, "graphs"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(tdir, "wal"), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, tdir)
			if _, ok := r.Snapshot("job-000002"); ok {
				t.Fatal("torn create record resurrected a job")
			}
			j, ok := r.Snapshot("job-000001")
			if !ok {
				t.Fatal("intact prefix record lost")
			}
			// Interrupted running job comes back pending.
			if j.State != Pending {
				t.Fatalf("state = %s, want pending", j.State)
			}
			// The healed log accepts appends and they survive a reopen.
			createJob(t, r, "job-000003", "")
			r.Close()
			r2 := mustOpen(t, tdir)
			if _, ok := r2.Snapshot("job-000003"); !ok {
				t.Fatal("append after truncation lost")
			}
		})
	}
}

// A frame that passes its CRC but holds garbage JSON is treated as a
// torn tail, not applied.
func TestCorruptJSONRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "")
	s.Close()
	w, _, err := openWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	w.close()
	r := mustOpen(t, dir)
	if len(r.Jobs()) != 1 {
		t.Fatalf("jobs = %d, want 1", len(r.Jobs()))
	}
}

func TestCompactionShrinksAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("job-%06d", i)
		createJob(t, s, id, "")
		if err := s.Start(id, ""); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.Finish(id, Done, json.RawMessage(`{"k":1}`), "", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 2; i <= 20; i += 4 {
		dropJob(t, s, fmt.Sprintf("job-%06d", i))
	}
	grown := s.LogBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.LogBytes() >= grown {
		t.Fatalf("compaction did not shrink the log: %d -> %d", grown, s.LogBytes())
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions = %d", s.Compactions())
	}
	want := make(map[string]State)
	for _, j := range s.Jobs() {
		st := j.State
		if st == Running {
			// Reopen coerces interrupted running jobs back to pending.
			st = Pending
		}
		want[j.ID] = st
	}
	// Post-compaction appends land in the new log.
	createJob(t, s, "job-000099", "")
	s.Close()

	r := mustOpen(t, dir)
	for id, st := range want {
		j, ok := r.Snapshot(id)
		if !ok || j.State != st {
			t.Fatalf("after compaction job %s = %+v, %v; want state %s", id, j, ok, st)
		}
	}
	if _, ok := r.Snapshot("job-000099"); !ok {
		t.Fatal("append after compaction lost")
	}
}

func TestAutoCompactionOnThreshold(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.CompactThreshold = 2048
	for i := 1; i <= 50; i++ {
		id := fmt.Sprintf("job-%06d", i)
		createJob(t, s, id, "")
		if err := s.Finish(id, Done, nil, "", nil, nil); err != nil {
			t.Fatal(err)
		}
		dropJob(t, s, id)
	}
	if s.Compactions() == 0 {
		t.Fatal("threshold never triggered a compaction")
	}
	if s.LogBytes() > 2048+1024 {
		t.Fatalf("log still %d bytes after auto compaction", s.LogBytes())
	}
}

// TestFaultInjectAppendAndCompact pins the journal-first rule and its
// two exceptions at the "jobstore.append" site: a failed create or
// start leaves the table exactly as it was, while a failed finish still
// shows the outcome — and the next compaction, not the lost append, is
// what makes it durable.
func TestFaultInjectAppendAndCompact(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "")

	faultinject.Set("jobstore.append", faultinject.Fault{Mode: faultinject.Error})
	if _, _, err := s.Admit(JobRecord{IdempotencyKey: "k"}); err == nil {
		t.Fatal("injected append fault not surfaced by Admit")
	}
	if err := s.Start("job-000001", ""); err == nil {
		t.Fatal("injected append fault not surfaced")
	}
	// Neither failed append may have touched the table: no second job,
	// no armed key, no consumed id, no state change.
	if _, ok := s.LookupByKey("k"); ok || len(s.Jobs()) != 1 {
		t.Fatalf("failed create left a trace: %d jobs", len(s.Jobs()))
	}
	if j, _ := s.Snapshot("job-000001"); j.State != Pending {
		t.Fatalf("state = %s after failed append, want pending", j.State)
	}
	// A failed finish reports the error and applies anyway.
	if err := s.Finish("job-000001", Done, json.RawMessage(`{"k":3}`), "", nil, nil); err == nil {
		t.Fatal("injected append fault not surfaced by Finish")
	}
	faultinject.Clear("jobstore.append")
	if j, _ := s.Snapshot("job-000001"); j.State != Done || string(j.Result) != `{"k":3}` {
		t.Fatalf("job = %+v after failed finish append, want done with its result", j)
	}
	if next := admit(t, s, ""); next.ID != "job-000002" {
		t.Fatalf("id after a failed create = %s, want job-000002", next.ID)
	}

	faultinject.Set("jobstore.compact", faultinject.Fault{Mode: faultinject.Error})
	if err := s.Compact(); err == nil {
		t.Fatal("injected compact fault not surfaced")
	}
	faultinject.Clear("jobstore.compact")
	// The old log is intact — and, the finish append having failed, it
	// still says pending.
	s.Close()
	r := mustOpen(t, dir)
	if j, ok := r.Snapshot("job-000001"); !ok || j.State != Pending {
		t.Fatalf("job = %+v, %v after failed compaction, want the old log's pending", j, ok)
	}

	// A compaction that succeeds writes the table, outcome included.
	if err := r.Finish("job-000001", Done, json.RawMessage(`{"k":3}`), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	faultinject.Set("jobstore.append", faultinject.Fault{Mode: faultinject.Error})
	if err := r.Finish("job-000002", Failed, nil, "boom", nil, nil); err == nil {
		t.Fatal("injected append fault not surfaced by Finish")
	}
	faultinject.Clear("jobstore.append")
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := mustOpen(t, dir)
	if j, ok := r2.Snapshot("job-000002"); !ok || j.State != Failed || j.Err != "boom" {
		t.Fatalf("job = %+v, %v; a compaction after the failed finish append must have written the outcome", j, ok)
	}
}

func TestImportGraphFile(t *testing.T) {
	src := filepath.Join(t.TempDir(), "donor.csr")
	if err := os.WriteFile(src, []byte("fake csr bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, t.TempDir())
	dst, err := s.ImportGraphFile("g-import", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || string(got) != "fake csr bytes" {
		t.Fatalf("imported content = %q, %v", got, err)
	}
	// The source stays in place: the donor store may come back for it.
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("source removed by import: %v", err)
	}
	// Re-import is a no-op (content-derived ids: present == correct).
	if _, err := s.ImportGraphFile("g-import", src); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportGraphFile("../evil", src); err == nil {
		t.Fatal("path-escaping graph id accepted")
	}
	if _, err := s.AdoptGraphFile("../evil", src); err == nil {
		t.Fatal("path-escaping graph id accepted by AdoptGraphFile")
	}
	if _, err := s.ImportGraphFile("g-missing", filepath.Join(t.TempDir(), "nope.csr")); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestJobSeqParsing(t *testing.T) {
	for id, want := range map[string]int64{
		"job-000042": 42,
		"job-1":      1,
		"weird":      0,
		"job-x":      0,
	} {
		if got := jobSeq(id); got != want {
			t.Fatalf("jobSeq(%q) = %d, want %d", id, got, want)
		}
	}
}

// TestFenceNamesTheAdopter: a fenced job is finished canceled, "adopted
// by" its adopter, and names the adopter in AdoptedBy — across a replay
// and across a compaction.
func TestFenceNamesTheAdopter(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "")
	if err := s.Fence("job-000001", "10.0.0.2:8080"); err != nil {
		t.Fatal(err)
	}
	check := func(when string, s *Store) {
		t.Helper()
		j, ok := s.Snapshot("job-000001")
		if !ok || j.State != Canceled || j.Err != "adopted by 10.0.0.2:8080" || j.AdoptedBy != "10.0.0.2:8080" || j.Finished.IsZero() {
			t.Fatalf("%s: fenced job = %+v", when, j)
		}
	}
	check("live", s)
	s.Close()
	s = mustOpen(t, dir)
	check("replayed", s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	check("compacted", mustOpen(t, dir))
}

package jobstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// admit creates the next job on s, failing the test on a journal error.
func admit(t *testing.T, s *Store, key string) *JobRecord {
	t.Helper()
	j, _, err := s.Admit(JobRecord{IdempotencyKey: key, Request: json.RawMessage(`{"algorithm":"mcl"}`)})
	if err != nil {
		t.Fatalf("Admit(%q): %v", key, err)
	}
	return j
}

// finish marks a job done with a small result.
func finish(t *testing.T, s *Store, id string) {
	t.Helper()
	if err := s.Finish(id, Done, json.RawMessage(`{"k":1}`), "", nil, nil); err != nil {
		t.Fatalf("Finish(%s): %v", id, err)
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	s := NewMemory()
	s.Retain = 2
	var ids []string
	for i := 0; i < 4; i++ {
		j := admit(t, s, "")
		ids = append(ids, j.ID)
		s.Start(j.ID, "")
		finish(t, s, j.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := s.Snapshot(id); ok {
			t.Fatalf("job %s survived retention", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Snapshot(id); !ok {
			t.Fatalf("job %s evicted wrongly", id)
		}
	}
	// Unfinished jobs are never evicted by retention.
	live := admit(t, s, "")
	for i := 0; i < 4; i++ {
		finish(t, s, admit(t, s, "").ID)
	}
	if _, ok := s.Snapshot(live.ID); !ok {
		t.Fatal("pending job evicted by retention")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

// TestRetentionOrderSurvivesRestart: A is created first and finishes
// last. After a restart the retention cap must still evict the job that
// finished first (B), whether the log replays finish records in order
// or a compacted log lists the jobs in creation order.
func TestRetentionOrderSurvivesRestart(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			a, b := admit(t, s, ""), admit(t, s, "")
			finish(t, s, b.ID)
			finish(t, s, a.ID)
			if compact {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			r := mustOpen(t, dir)
			r.Retain = 2
			finish(t, r, admit(t, r, "").ID)
			if _, ok := r.Snapshot(a.ID); !ok {
				t.Fatal("the job that finished last was evicted first after a restart")
			}
			if _, ok := r.Snapshot(b.ID); ok {
				t.Fatal("the job that finished first survived the retention cap")
			}
		})
	}
}

func TestJobIDsAreSequentialAndUnique(t *testing.T) {
	s := NewMemory()
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		j := admit(t, s, "")
		if seen[j.ID] {
			t.Fatalf("duplicate id %s", j.ID)
		}
		seen[j.ID] = true
		if want := fmt.Sprintf("job-%06d", i+1); j.ID != want {
			t.Fatalf("id = %s, want %s", j.ID, want)
		}
	}
}

func TestJobTTLExpiry(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s := NewMemory()
	s.TTL = time.Minute
	s.now = func() time.Time { return now }

	j := admit(t, s, "")
	s.Start(j.ID, "")
	finish(t, s, j.ID)

	// Inside the TTL the finished job is still visible.
	now = now.Add(59 * time.Second)
	if _, ok := s.Snapshot(j.ID); !ok {
		t.Fatal("job expired before its TTL")
	}

	now = now.Add(2 * time.Second)
	if _, ok := s.Snapshot(j.ID); ok {
		t.Fatal("job visible past its TTL")
	}
	if s.Expired() != 1 {
		t.Fatalf("expired = %d, want 1", s.Expired())
	}

	// Unfinished jobs are never expired, however old.
	running := admit(t, s, "")
	s.Start(running.ID, "")
	now = now.Add(24 * time.Hour)
	if _, ok := s.Snapshot(running.ID); !ok {
		t.Fatal("running job expired")
	}
	if got := s.Counts()[Running]; got != 1 {
		t.Fatalf("running count = %d, want 1", got)
	}
}

func TestJobTTLDisabled(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s := NewMemory()
	s.now = func() time.Time { return now }
	j := admit(t, s, "")
	finish(t, s, j.ID)
	now = now.Add(1000 * time.Hour)
	if _, ok := s.Snapshot(j.ID); !ok {
		t.Fatal("job expired with TTL disabled")
	}
	if s.Expired() != 0 {
		t.Fatalf("expired = %d, want 0", s.Expired())
	}
}

// TestModelMemoryMatchesDurable drives a memory-only store and a
// journaled one — closed, reopened and compacted at random points —
// through the same seeded random sequence of admissions (with and
// without keys, repeats included), starts, requeues, checkpoints,
// finishes in every terminal state and clock advances that expire and
// evict. The journal must be invisible: after every step both tables
// hold the same jobs in the same states under the same keys and would
// allocate the same next id. The two documented differences are applied
// by hand: only the journaled side keeps checkpoints, and a reopen turns
// running jobs pending.
func TestModelMemoryMatchesDurable(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "adopt/n2/job-000001"}
	outcomes := []State{Done, Failed, Canceled}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(1_000_000, 0).UTC()
			configure := func(s *Store) *Store {
				s.Retain, s.TTL = 3, time.Minute
				s.now = func() time.Time { return now }
				return s
			}
			dir := t.TempDir()
			mem, dur := configure(NewMemory()), configure(mustOpen(t, dir))
			var ids []string
			both := func(op func(s *Store) error) {
				t.Helper()
				if err := op(mem); err != nil {
					t.Fatalf("memory store: %v", err)
				}
				if err := op(dur); err != nil {
					t.Fatalf("durable store: %v", err)
				}
			}
			for step := 0; step < 150; step++ {
				// Every step is a distinct instant, so finish order is
				// total and a compacted replay can recover it.
				now = now.Add(time.Second)
				id := fmt.Sprintf("job-%06d", 1+rng.Intn(len(ids)+1))
				switch op := rng.Intn(12); op {
				case 0, 1, 2:
					key := ""
					if op > 0 {
						key = keys[rng.Intn(len(keys))]
					}
					tmpl := JobRecord{IdempotencyKey: key, Request: json.RawMessage(`{"algorithm":"mcl"}`)}
					m, mOld, mErr := mem.Admit(tmpl)
					d, dOld, dErr := dur.Admit(tmpl)
					if mErr != nil || dErr != nil {
						t.Fatalf("step %d: admit(%q): %v in memory, %v journaled", step, key, mErr, dErr)
					}
					if m.ID != d.ID || mOld != dOld {
						t.Fatalf("step %d: admit(%q) = %s (existing %v) in memory, %s (existing %v) journaled", step, key, m.ID, mOld, d.ID, dOld)
					}
					if !mOld {
						ids = append(ids, m.ID)
					}
				case 3, 4:
					both(func(s *Store) error { return s.Start(id, "t-"+id) })
				case 5:
					both(func(s *Store) error { return s.Requeue(id) })
				case 6:
					both(func(s *Store) error { return s.SaveCheckpoint(id, "mcl", Checkpoint{Seq: 1, Iter: step}) })
				case 7, 8:
					state := outcomes[rng.Intn(len(outcomes))]
					both(func(s *Store) error { return s.Finish(id, state, json.RawMessage(`{"k":2}`), "why", nil, nil) })
				case 9:
					now = now.Add(time.Duration(rng.Intn(50)) * time.Second)
				case 10:
					if err := dur.Compact(); err != nil {
						t.Fatal(err)
					}
				case 11:
					dur.Close()
					dur = configure(mustOpen(t, dir))
					for _, j := range mem.jobs {
						if j.State == Running {
							j.State = Pending
						}
					}
				}
				assertSameTable(t, step, mem, dur, ids, keys)
			}
		})
	}
}

// assertSameTable compares everything two stores expose about their
// jobs, checkpoints aside.
func assertSameTable(t *testing.T, step int, mem, dur *Store, ids, keys []string) {
	t.Helper()
	render := func(j *JobRecord, ok bool) string {
		if !ok {
			return "absent"
		}
		j.Checkpoints = nil
		b, _ := json.Marshal(j)
		return string(b)
	}
	for _, id := range ids {
		m, d := render(mem.Snapshot(id)), render(dur.Snapshot(id))
		if m != d {
			t.Fatalf("step %d: %s\n  memory:    %s\n  journaled: %s", step, id, m, d)
		}
	}
	if m, d := mem.Counts(), dur.Counts(); !reflect.DeepEqual(m, d) {
		t.Fatalf("step %d: counts %v in memory, %v journaled", step, m, d)
	}
	if m, d := mem.Pending(), dur.Pending(); m != d {
		t.Fatalf("step %d: pending %d in memory, %d journaled", step, m, d)
	}
	order := func(jobs []*JobRecord) (out []string) {
		for _, j := range jobs {
			out = append(out, j.ID)
		}
		return out
	}
	if m, d := order(mem.Jobs()), order(dur.Jobs()); !reflect.DeepEqual(m, d) {
		t.Fatalf("step %d: jobs %v in memory, %v journaled", step, m, d)
	}
	if m, d := order(mem.PendingJobs()), order(dur.PendingJobs()); !reflect.DeepEqual(m, d) {
		t.Fatalf("step %d: pending jobs %v in memory, %v journaled", step, m, d)
	}
	for _, key := range keys {
		mID, mOK := mem.LookupByKey(key)
		dID, dOK := dur.LookupByKey(key)
		if mID != dID || mOK != dOK {
			t.Fatalf("step %d: key %q → %q (%v) in memory, %q (%v) journaled", step, key, mID, mOK, dID, dOK)
		}
	}
	if mem.maxSeq != dur.maxSeq {
		t.Fatalf("step %d: next id after %d in memory, after %d journaled", step, mem.maxSeq, dur.maxSeq)
	}
}

//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"symcluster/internal/faultinject"
)

// The journal's lock: while one store holds a directory, TryOpen is
// refused — in this process as in any other, since flock binds the open
// file and not the process — and a closed store leaves it free.
func TestTryOpenRefusedWhileHeld(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := TryOpen(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("TryOpen on a held journal: %v, want ErrLocked", err)
	}
	s.Close()
	r, err := TryOpen(dir)
	if err != nil {
		t.Fatalf("TryOpen after Close: %v", err)
	}
	r.Close()
}

// Compaction renames a new log over wal; the lock lives on its own file,
// so it still refuses afterwards.
func TestLockOutlivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.CompactThreshold = 2048
	for i := 1; s.Compactions() == 0; i++ {
		if i > 200 {
			t.Fatal("threshold never triggered a compaction")
		}
		id := fmt.Sprintf("job-%06d", i)
		createJob(t, s, id, "")
		if err := s.Finish(id, Done, nil, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TryOpen(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("TryOpen after a compaction: %v, want ErrLocked", err)
	}
}

// Open waits for the lock: a second writer on a held journal blocks until
// the holder closes, then replays what the holder left.
func TestOpenWaitsForHolder(t *testing.T) {
	dir := t.TempDir()
	h, err := TryOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	createJob(t, h, "job-000001", "")
	opened := make(chan *Store, 1)
	go func() {
		s, err := Open(dir)
		if err != nil {
			t.Error(err)
		}
		opened <- s
	}()
	select {
	case <-opened:
		t.Fatal("Open returned while another store held the journal")
	case <-time.After(100 * time.Millisecond):
	}
	h.Close()
	select {
	case s := <-opened:
		if s == nil {
			return
		}
		defer s.Close()
		if _, ok := s.Snapshot("job-000001"); !ok {
			t.Fatal("the waiting Open missed the holder's job")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Open still waiting after the holder closed")
	}
}

// An Open that fails — here its compaction on open — releases the lock.
func TestFailedOpenReleasesLock(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	// Three 2 MiB requests put the log over the 4 MiB default threshold,
	// so the next Open compacts.
	big := json.RawMessage(`"` + strings.Repeat("x", 2<<20) + `"`)
	for i := 1; i <= 3; i++ {
		if _, _, err := s.Admit(JobRecord{Request: big}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	faultinject.Set("jobstore.compact", faultinject.Fault{Mode: faultinject.Error})
	if r, err := Open(dir); err == nil {
		r.Close()
		t.Fatal("Open compacted through an injected fault")
	}
	faultinject.Clear("jobstore.compact")
	r, err := TryOpen(dir)
	if err != nil {
		t.Fatalf("TryOpen after a failed Open: %v, want the journal unlocked", err)
	}
	defer r.Close()
	if r.Compactions() != 1 || len(r.Jobs()) != 3 {
		t.Fatalf("reopen: %d compactions, %d jobs; want 1 and 3", r.Compactions(), len(r.Jobs()))
	}
}

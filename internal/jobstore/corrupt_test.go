package jobstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"symcluster/internal/faultinject"
)

// frameOffsets returns the byte offset of every intact frame in a WAL
// image, using the same scanner replay uses.
func frameOffsets(t testing.TB, data []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off+frameHeaderBytes <= len(data) {
		n := binary.LittleEndian.Uint32(data[off:])
		if off+frameHeaderBytes+int(n) > len(data) {
			break
		}
		offs = append(offs, off)
		off += frameHeaderBytes + int(n)
	}
	if off != len(data) {
		t.Fatalf("wal image has %d trailing bytes past the last frame", len(data)-off)
	}
	return offs
}

// walImage builds a store with three jobs (job 1 finished, jobs 2 and
// 3 pending) and returns its directory and the raw WAL bytes.
func walImage(t testing.TB) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "k1")
	if err := s.Finish("job-000001", Done, nil, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	createJob(t, s, "job-000002", "k2")
	createJob(t, s, "job-000003", "k3")
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// reopenCorrupted writes image into a fresh store directory and opens
// it, returning the replayed store.
func reopenCorrupted(t *testing.T, image []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir), dir
}

// midFileCorruptions damages the frame at target three ways: a flipped
// payload byte (CRC mismatch), a flipped CRC field (the same, from the
// other side), and a length header rewritten to an absurd size.
func midFileCorruptions(target int) map[string]func(img []byte) {
	return map[string]func(img []byte){
		"payload-bit-flip": func(img []byte) { img[target+frameHeaderBytes] ^= 0x01 },
		"crc-bit-flip":     func(img []byte) { img[target+4] ^= 0x01 },
		"length-header": func(img []byte) {
			binary.LittleEndian.PutUint32(img[target:], maxFrameBytes+1)
		},
	}
}

// TestReplayHaltsAtMidFileCorruption pins the corruption contract:
// replay of a WAL with a bad frame in the MIDDLE (not a torn tail)
// halts at that frame — the intact prefix survives, the corrupt frame
// AND every intact frame after it are discarded (never skipped over),
// and the file is truncated so subsequent appends land at a clean
// boundary. Three corruption flavors: midFileCorruptions.
func TestReplayHaltsAtMidFileCorruption(t *testing.T) {
	_, full := walImage(t)
	offs := frameOffsets(t, full)
	if len(offs) < 4 {
		t.Fatalf("wal image has %d frames, want >= 4", len(offs))
	}
	// Corrupt the third frame: job-000002's create. Frames 1-2
	// (job-000001's create and finish) are the intact prefix; frame 4
	// (job-000003's create) is intact but downstream of the damage.
	target := offs[2]

	for name, mutate := range midFileCorruptions(target) {
		t.Run(name, func(t *testing.T) {
			img := append([]byte(nil), full...)
			mutate(img)
			r, dir := reopenCorrupted(t, img)

			// Prefix intact: the finished job replays with its final state.
			j1, ok := r.Snapshot("job-000001")
			if !ok || j1.State != Done {
				t.Fatalf("job-000001 = %+v, %v; want done", j1, ok)
			}
			// The corrupted record's job is gone.
			if _, ok := r.Snapshot("job-000002"); ok {
				t.Fatal("corrupted create record resurrected job-000002")
			}
			// Halt, not skip: the intact frame AFTER the corruption must
			// not be applied — its boundary was derived from a frame we no
			// longer trust.
			if _, ok := r.Snapshot("job-000003"); ok {
				t.Fatal("replay skipped past a corrupt frame and applied a downstream record")
			}
			// The log was truncated back to the intact prefix...
			st, err := os.Stat(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(target) {
				t.Fatalf("wal size = %d after replay, want %d (intact prefix)", st.Size(), target)
			}
			// ...and accepts appends that survive a clean reopen.
			createJob(t, r, "job-000004", "")
			r.Close()
			r2 := mustOpen(t, dir)
			if _, ok := r2.Snapshot("job-000004"); !ok {
				t.Fatal("append after corruption truncation lost")
			}
			if _, ok := r2.Snapshot("job-000003"); ok {
				t.Fatal("discarded record reappeared after reopen")
			}
		})
	}
}

// TestMidRunAppendCrashChaos is the faultinject drill for the same
// contract: a panic injected mid-append (a crash at the worst moment,
// after some records landed) must leave a log that replays the intact
// prefix and keeps accepting work — exercising the halt-and-truncate
// path through the real append machinery rather than hand-corrupted
// bytes.
func TestMidRunAppendCrashChaos(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	createJob(t, s, "job-000001", "")

	// Panic on the SECOND append from now: the Start lands, the Finish
	// "crashes the process".
	faultinject.Set("jobstore.append", faultinject.Fault{Mode: faultinject.Panic, Skip: 1})
	if err := s.Start("job-000001", ""); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not fire")
			}
		}()
		s.Finish("job-000001", Done, nil, "", nil, nil)
	}()
	faultinject.Clear("jobstore.append")
	s.Close()

	r := mustOpen(t, dir)
	j, ok := r.Snapshot("job-000001")
	if !ok {
		t.Fatal("job lost after mid-append crash")
	}
	// The Finish never hit the log; the interrupted running job replays
	// as pending, ready to re-run — never as done.
	if j.State != Pending {
		t.Fatalf("state = %s after crash before finish append, want pending", j.State)
	}
	if next, _, err := r.Admit(JobRecord{}); err != nil || next.ID != "job-000002" {
		t.Fatalf("append after the crash = %+v, %v; want job-000002", next, err)
	}
	r.Close()
}

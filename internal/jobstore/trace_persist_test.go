package jobstore

import (
	"encoding/json"
	"testing"
	"time"
)

// TestTraceAndStatsPersistence covers the observability fields riding
// the WAL: the trace id journaled with the start op, the link to an
// adopted job's originating trace, and the resource-accounting
// snapshot journaled with the finish op — all of which must survive
// replay and compaction.
func TestTraceAndStatsPersistence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	createJob(t, s, "job-000001", "")
	if err := s.Start("job-000001", "t-abc-000001"); err != nil {
		t.Fatal(err)
	}
	stats := json.RawMessage(`{"queue_wait_millis":1.5,"stages":{"cluster":{"wall_millis":20,"cpu_millis":6,"alloc_bytes":150}}}`)
	if err := s.Finish("job-000001", Done, json.RawMessage(`{"k":2}`), "", stats, nil); err != nil {
		t.Fatal(err)
	}

	// An adopted job's record carries the dead owner's trace as a link.
	if err := s.Create(&JobRecord{
		ID:          "job-000002",
		State:       Pending,
		Request:     json.RawMessage(`{"algorithm":"mcl"}`),
		Created:     time.Unix(1003, 0),
		LinkTraceID: "t-dead-000007",
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	check := func(s *Store, when string) {
		t.Helper()
		rec, ok := s.Snapshot("job-000001")
		if !ok {
			t.Fatalf("%s: job-000001 gone", when)
		}
		if rec.TraceID != "t-abc-000001" {
			t.Fatalf("%s: TraceID = %q", when, rec.TraceID)
		}
		if string(rec.Stats) != string(stats) {
			t.Fatalf("%s: Stats = %s, want %s", when, rec.Stats, stats)
		}
		adopted, ok := s.Snapshot("job-000002")
		if !ok || adopted.LinkTraceID != "t-dead-000007" {
			t.Fatalf("%s: adopted record = %+v, ok=%v", when, adopted, ok)
		}
	}

	r := mustOpen(t, dir)
	check(r, "after replay")
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	check(r, "after compaction")
	r.Close()

	r2 := mustOpen(t, dir)
	check(r2, "after compacted replay")
}

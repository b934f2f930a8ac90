package jobstore

import (
	"os"
	"path/filepath"
	"testing"
)

// parentLog is a WAL exactly as the commit before the single job table
// wrote it (when the server kept its own table and mirrored it here):
// one frame payload per line, covering create (plain, keyed and
// adopted-with-checkpoints), start, checkpoint, finish (done and
// failed), requeue and drop, with job-000004 still running at the end.
var parentLog = []string{
	`{"op":"create","time":"0001-01-01T00:00:00Z","job":{"id":"job-000001","state":"pending","idempotency_key":"k-one","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:40Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}}`,
	`{"op":"start","time":"1970-01-01T00:16:41Z","id":"job-000001","trace":"t-aaaa-000001"}`,
	`{"op":"checkpoint","time":"0001-01-01T00:00:00Z","id":"job-000001","kernel":"mcl","ckpt":{"seq":1,"iter":25,"blob":"Zmxvdy0yNQ=="}}`,
	`{"op":"finish","time":"1970-01-01T00:16:42Z","id":"job-000001","state":"done","result":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","nodes":3,"undirected_edges":2,"k":2,"assign":[0,0,1],"cache_hit":false,"symmetrize_millis":1.5,"cluster_millis":2.25},"stats":{"queue_wait_millis":0.5}}`,
	`{"op":"create","time":"0001-01-01T00:00:00Z","job":{"id":"job-000002","state":"pending","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:43Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}}`,
	`{"op":"start","time":"1970-01-01T00:16:44Z","id":"job-000002","trace":"t-bbbb-000002"}`,
	`{"op":"finish","time":"1970-01-01T00:16:45Z","id":"job-000002","state":"failed","err":"boom"}`,
	`{"op":"create","time":"0001-01-01T00:00:00Z","job":{"id":"job-000003","state":"pending","idempotency_key":"adopt/n2/job-000009","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:46Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z","link_trace_id":"t-dead-000009","checkpoints":{"mcl":{"seq":1,"iter":50,"blob":"Zmxvdy01MA=="}}}}`,
	`{"op":"start","time":"1970-01-01T00:16:47Z","id":"job-000003","trace":"t-cccc-000003"}`,
	`{"op":"checkpoint","time":"0001-01-01T00:00:00Z","id":"job-000003","kernel":"mcl","ckpt":{"seq":1,"iter":75,"blob":"Zmxvdy03NQ=="}}`,
	`{"op":"requeue","time":"1970-01-01T00:16:48Z","id":"job-000003"}`,
	`{"op":"create","time":"0001-01-01T00:00:00Z","job":{"id":"job-000004","state":"pending","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:49Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}}`,
	`{"op":"start","time":"1970-01-01T00:16:50Z","id":"job-000004"}`,
	`{"op":"drop","time":"0001-01-01T00:00:00Z","id":"job-000002"}`,
}

// parentSnapshot is what the same commit's compaction made of
// parentLog after a reopen: the snapshot form of the same three jobs.
var parentSnapshot = []string{
	`{"op":"snapshot","time":"0001-01-01T00:00:00Z","job":{"id":"job-000001","state":"done","idempotency_key":"k-one","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"result":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","nodes":3,"undirected_edges":2,"k":2,"assign":[0,0,1],"cache_hit":false,"symmetrize_millis":1.5,"cluster_millis":2.25},"created":"1970-01-01T00:16:40Z","started":"1970-01-01T00:16:41Z","finished":"1970-01-01T00:16:42Z","trace_id":"t-aaaa-000001","stats":{"queue_wait_millis":0.5}}}`,
	`{"op":"snapshot","time":"0001-01-01T00:00:00Z","job":{"id":"job-000003","state":"pending","idempotency_key":"adopt/n2/job-000009","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:46Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z","trace_id":"t-cccc-000003","link_trace_id":"t-dead-000009","checkpoints":{"mcl":{"seq":1,"iter":75,"blob":"Zmxvdy03NQ=="}}}}`,
	`{"op":"snapshot","time":"0001-01-01T00:00:00Z","job":{"id":"job-000004","state":"pending","request":{"graph_id":"g-00000000000000aa","method":"dd","algorithm":"mcl","seed":7,"async":true},"created":"1970-01-01T00:16:49Z","started":"1970-01-01T00:16:50Z","finished":"0001-01-01T00:00:00Z"}}`,
}

// TestReplaysParentWAL proves a data directory written before the job
// table moved into this package replays to the same jobs, from both the
// op-by-op log and its compacted form, and that this package's own
// compaction of it is byte-identical to the parent's.
func TestReplaysParentWAL(t *testing.T) {
	for name, payloads := range map[string][]string{"log": parentLog, "snapshot": parentSnapshot} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := openWAL(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads {
				if err := w.append([]byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			w.close()

			s := mustOpen(t, dir)
			done, ok := s.Snapshot("job-000001")
			if !ok || done.State != Done || done.TraceID != "t-aaaa-000001" || done.Checkpoints != nil ||
				string(done.Stats) != `{"queue_wait_millis":0.5}` || done.Finished.Unix() != 1002 {
				t.Fatalf("job-000001 = %+v, %v", done, ok)
			}
			if _, ok := s.Snapshot("job-000002"); ok {
				t.Fatal("dropped job-000002 came back")
			}
			adopted, ok := s.Snapshot("job-000003")
			if !ok || adopted.State != Pending || !adopted.Started.IsZero() || adopted.LinkTraceID != "t-dead-000009" ||
				adopted.Checkpoints["mcl"].Iter != 75 || string(adopted.Checkpoints["mcl"].Blob) != "flow-75" {
				t.Fatalf("job-000003 = %+v, %v", adopted, ok)
			}
			// Running when the log ends: pending again, start time kept.
			if j, ok := s.Snapshot("job-000004"); !ok || j.State != Pending || j.Started.Unix() != 1010 {
				t.Fatalf("job-000004 = %+v, %v", j, ok)
			}
			if id, _ := s.LookupByKey("k-one"); id != "job-000001" {
				t.Fatalf("key k-one → %q", id)
			}
			if id, _ := s.LookupByKey("adopt/n2/job-000009"); id != "job-000003" {
				t.Fatalf("adoption key → %q", id)
			}
			if s.Replayed() != 2 || s.Pending() != 2 {
				t.Fatalf("replayed %d, pending %d; want 2, 2", s.Replayed(), s.Pending())
			}

			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := scanFrames(data)
			if len(got) != len(parentSnapshot) {
				t.Fatalf("compaction wrote %d frames, the parent wrote %d", len(got), len(parentSnapshot))
			}
			for i, want := range parentSnapshot {
				if string(got[i]) != want {
					t.Fatalf("snapshot frame %d\n got: %s\nwant: %s", i, got[i], want)
				}
			}
			if next := admit(t, s, ""); next.ID != "job-000005" {
				t.Fatalf("next id = %s, want job-000005", next.ID)
			}
		})
	}
}

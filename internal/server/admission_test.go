package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/gen"
	"symcluster/internal/jobstore"
	"symcluster/internal/pipeline"
)

// jobTableState is everything a refused submission must leave alone.
type jobTableState struct {
	Counts   map[jobstore.State]int
	Jobs     int
	KeyHeld  bool
	Appends  int64
	LogBytes int64
}

func tableState(s *Server, key string) jobTableState {
	_, held := s.jobs.LookupByKey(key)
	return jobTableState{s.jobs.Counts(), len(s.jobs.Jobs()), held && key != "", s.jobs.Appends(), s.jobs.LogBytes()}
}

// TestRefusedSubmitLeavesNothing: a POST /v1/cluster the node refuses
// — over the byte budget, past its deadline, bounced off a full queue —
// leaves the job table, the key index and the WAL exactly as they were,
// so the retry Retry-After asks for, under the same Idempotency-Key, is
// a new job that runs. (Before admission moved ahead of the journal, a
// refused async submission was journaled, failed, and its key pinned to
// the failure.)
func TestRefusedSubmitLeavesNothing(t *testing.T) {
	refusals := []struct {
		name  string
		cfg   Config
		code  int
		async bool
		// busy: the refusal needs job 1 on the worker and job 2 queued.
		busy bool
	}{
		{"413 byte budget", Config{Workers: 1, MaxJobBytes: 1}, http.StatusRequestEntityTooLarge, true, false},
		{"504 deadline", Config{Workers: 1}, http.StatusGatewayTimeout, false, false},
		{"503 queue full", Config{Workers: 1, QueueDepth: 1}, http.StatusServiceUnavailable, true, true},
		{"503 queue full, sync", Config{Workers: 1, QueueDepth: 1}, http.StatusServiceUnavailable, false, true},
	}
	for _, rf := range refusals {
		for _, key := range []string{"", "k1"} {
			for _, durable := range []bool{false, true} {
				if key != "" && !rf.async {
					continue // a key on a synchronous run is a 400 before admission
				}
				name := rf.name + "/key=" + key + "/durable=" + strconv.FormatBool(durable)
				t.Run(name, func(t *testing.T) {
					defer faultinject.Reset()
					cfg := rf.cfg
					if durable {
						cfg.DataDir = t.TempDir()
					}
					s, ts := newTestServer(t, cfg)
					info := s.RegisterGraph(mustFigure1Graph(t))
					filler := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
					req := ClusterRequest{GraphID: info.ID, Method: "rw", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: rf.async}

					var fillers []JobRef
					if rf.busy {
						// Job 1 stalls on the only worker; job 2 waits behind it.
						faultinject.Set("pool.task", faultinject.Fault{Mode: faultinject.Delay, Delay: 300 * time.Millisecond, Times: 1})
						fillers = append(fillers, decodeJobRef(t, postCluster(t, ts.URL, filler, "")))
						waitFor(t, 10*time.Second, "job 1 on the worker", func() bool {
							return s.pool.Busy() == 1 && s.pool.QueueDepth() == 0
						})
						fillers = append(fillers, decodeJobRef(t, postCluster(t, ts.URL, filler, "")))
					}

					before := tableState(s, key)
					var resp *http.Response
					if rf.code == http.StatusGatewayTimeout {
						resp = postClusterWithBudget(t, ts, req, 0)
					} else {
						resp = postCluster(t, ts.URL, req, key)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != rf.code {
						t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, rf.code, body)
					}
					if after := tableState(s, key); !reflect.DeepEqual(before, after) {
						t.Fatalf("the refusal changed the job table:\n before %+v\n after  %+v", before, after)
					}
					if !rf.busy {
						return
					}

					// The queue drains; the retry, same key, is admitted and runs.
					for _, ref := range fillers {
						waitFor(t, 10*time.Second, "filler done", func() bool {
							job, ok := s.jobs.Snapshot(ref.JobID)
							return ok && job.State == jobstore.Done
						})
					}
					if !rf.async {
						resp := postCluster(t, ts.URL, req, "")
						if resp.StatusCode != http.StatusOK {
							resp.Body.Close()
							t.Fatalf("synchronous retry: status %d, want 200", resp.StatusCode)
						}
						if got := decode[ClusterResponse](t, resp); len(got.Assign) == 0 {
							t.Fatal("synchronous retry assigned nothing")
						}
						return
					}
					ref := decodeJobRef(t, postCluster(t, ts.URL, req, key))
					var job *jobstore.JobRecord
					waitFor(t, 10*time.Second, "retried job done", func() bool {
						job, _ = s.jobs.Snapshot(ref.JobID)
						if job != nil && job.State == jobstore.Failed {
							t.Fatalf("retried job failed: %s", job.Err)
						}
						return job != nil && job.State == jobstore.Done
					})
					if key != "" {
						if id, ok := s.jobs.LookupByKey(key); !ok || id != ref.JobID {
							t.Fatalf("key %q names %q (held %v), want the retried job %s", key, id, ok, ref.JobID)
						}
					}
					// Same assignments as a run that was never refused.
					req.Async = false
					want := decode[ClusterResponse](t, postCluster(t, ts.URL, req, ""))
					var got ClusterResponse
					if err := json.Unmarshal(job.Result, &got); err != nil {
						t.Fatal(err)
					}
					if len(want.Assign) == 0 || !reflect.DeepEqual(got.Assign, want.Assign) {
						t.Fatalf("retried job assigned %v, an unrefused run %v", got.Assign, want.Assign)
					}
				})
			}
		}
	}
}

// TestAdmissionTable holds admit to DESIGN.md §9's "Admission control"
// table: the gates in the order stated, each refusing with the status
// and counting into the family its row names. Every case arms its own
// gate and every later one, so the answer also proves the order; every
// row must be produced by a case and every case have its row.
func TestAdmissionTable(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	info := s.RegisterGraph(mustFigure1Graph(t))
	prep, err := s.prepareRun(&ClusterRequest{GraphID: info.ID, Method: "rw", Algorithm: "mcl"})
	if err != nil {
		t.Fatal(err)
	}
	release := occupy(t, s.pool)
	queued := mustReserve(t, s.pool) // Reserve now answers ErrQueueFull

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	live, cancelLive := context.WithTimeout(context.Background(), time.Minute)
	defer cancelLive()

	// budget arms gate 1; ctx arms gate 2; the full queue arms gate 3.
	cases := []struct {
		row    string // "order|gate" in the DESIGN.md table
		budget int64
		ctx    context.Context
		code   int
	}{
		{"1|byte budget", 1, expired, 413},
		{"2|deadline", 0, expired, 504},
		{"2|caller gone", 0, gone, 499},
		{"3|queue place", 0, live, 503}, // a live deadline is never weighed against the estimate
		{"3|queue place", 0, context.Background(), 503},
	}
	counters := []string{"symclusterd_admission_rejected_total", "symclusterd_deadline_rejected_total"}
	read := func() map[string]int64 {
		var buf bytes.Buffer
		s.metrics.reg.WriteText(&buf)
		out := map[string]int64{}
		for _, name := range counters {
			out[name] = expositionValue(buf.String(), name)
		}
		return out
	}
	documented := designAdmissionRows(t)
	produced := map[string]bool{}
	for _, c := range cases {
		s.cfg.MaxJobBytes = c.budget
		before := read()
		_, err := s.admit(c.ctx, prep)
		if err == nil || httpStatus(err) != c.code {
			t.Errorf("%s: admit = %v (status %d), want %d", c.row, err, httpStatus(err), c.code)
			continue
		}
		doc, ok := documented[c.row]
		if !ok {
			t.Errorf("DESIGN.md §9 admission table has no row %q", c.row)
			continue
		}
		produced[c.row] = true
		if doc.status != strconv.Itoa(c.code) {
			t.Errorf("%s: DESIGN.md says status %s, admit answered %d", c.row, doc.status, c.code)
		}
		after := read()
		for _, name := range counters {
			want := int64(0)
			if name == doc.counter {
				want = 1
			}
			if got := after[name] - before[name]; got != want {
				t.Errorf("%s: %s moved by %d, want %d (the row's counter is %q)", c.row, name, got, want, doc.counter)
			}
		}
		if s.pool.QueueDepth() != 1 {
			t.Errorf("%s: a refusal left queue depth %d; want 1", c.row, s.pool.QueueDepth())
		}
	}
	for row := range documented {
		if !produced[row] {
			t.Errorf("DESIGN.md §9 admission row %q is produced by no case here", row)
		}
	}

	// With a place free and nothing armed, the same job is admitted and
	// holds the place.
	queued.Release()
	tk, err := s.admit(live, prep)
	if err != nil {
		t.Fatalf("admit on a free queue: %v", err)
	}
	if s.pool.QueueDepth() != 1 {
		t.Fatalf("queue depth %d beside an admitted job, want 1", s.pool.QueueDepth())
	}
	if _, err := s.pool.Reserve(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second reserve beside an admitted job: %v, want ErrQueueFull", err)
	}
	tk.slot.Release()
	release()
}

// TestAdmitTightLiveDeadline: admission does not guess how long a job
// will take. dd+graclus on the benchmark's 8 k-node R-MAT is estimated
// at over a gigabyte — the unpruned flop bound, hundreds of times the
// heap the run holds — yet a synchronous request with 300 ms left is
// admitted, as its run of well under that deserves. A best-case fit of
// the estimate at 4 GiB/s would refuse it 504 "deadline too tight".
func TestAdmitTightLiveDeadline(t *testing.T) {
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, MaxJobBytes: 4096 << 20})
	info := s.RegisterGraph(d.Graph)
	prep, err := s.prepareRun(&ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "graclus", K: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est := pipeline.EstimateJobBytes(prep.run.Sym, prep.run.Cl, prep.rg.stats.WithK(64)); est < 1<<30 {
		t.Fatalf("estimate %d bytes: under 1 GiB, not the case this pins", est)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	tk, err := s.admit(ctx, prep)
	if err != nil {
		t.Fatalf("admit with 300 ms left = %v (status %d), want a ticket", err, httpStatus(err))
	}
	defer tk.slot.Release()
	if tk.ooc {
		t.Fatal("admitted out-of-core under a 4 GiB job budget")
	}
	var buf bytes.Buffer
	s.metrics.reg.WriteText(&buf)
	if got := expositionValue(buf.String(), "symclusterd_deadline_rejected_total"); got != 0 {
		t.Fatalf("symclusterd_deadline_rejected_total = %d, want 0", got)
	}
}

// TestReadmit: a replayed or adopted job waits out a full queue — the
// replayed backlog is itself the contention — and is admitted once a
// place frees. Any other refusal comes back at once, so the replay loop
// fails that job, or, for a closed pool, stops.
func TestReadmit(t *testing.T) {
	record := func(t *testing.T, req ClusterRequest) *jobstore.JobRecord {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return &jobstore.JobRecord{ID: "job-000001", Request: raw}
	}
	newServer := func(t *testing.T, cfg Config) (*Server, ClusterRequest) {
		s := mustNew(t, cfg)
		info := s.RegisterGraph(mustFigure1Graph(t))
		return s, ClusterRequest{GraphID: info.ID, Method: "rw", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
	}

	t.Run("waits out a full queue", func(t *testing.T) {
		s, req := newServer(t, Config{Workers: 1, QueueDepth: 1})
		release := occupy(t, s.pool)
		defer release()
		queued := mustReserve(t, s.pool)
		type result struct {
			tk  ticket
			err error
		}
		done := make(chan result, 1)
		go func() {
			_, tk, err := s.readmit(context.Background(), record(t, req))
			done <- result{tk, err}
		}()
		select {
		case r := <-done:
			t.Fatalf("readmit on a full queue returned %v, want it to wait", r.err)
		case <-time.After(200 * time.Millisecond):
		}
		queued.Release()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("readmit after a place freed: %v", r.err)
			}
			if s.pool.QueueDepth() != 1 {
				t.Errorf("queue depth %d beside the readmitted job, want 1", s.pool.QueueDepth())
			}
			r.tk.slot.Release()
		case <-time.After(5 * time.Second):
			t.Fatal("readmit still waiting 5 s after a place freed")
		}
	})

	refusals := []struct {
		name string
		cfg  Config
		edit func(*Server, *ClusterRequest)
		want func(error) bool
	}{
		{"fails over the byte budget", Config{MaxJobBytes: 1}, func(*Server, *ClusterRequest) {},
			func(err error) bool { return httpStatus(err) == http.StatusRequestEntityTooLarge }},
		{"fails a request that no longer resolves", Config{}, func(_ *Server, req *ClusterRequest) { req.Method = "no-such-method" },
			func(err error) bool { return httpStatus(err) == http.StatusBadRequest }},
		{"stops on a closed pool", Config{}, func(s *Server, _ *ClusterRequest) { s.pool.Close(context.Background()) },
			func(err error) bool { return errors.Is(err, ErrPoolClosed) }},
	}
	for _, rf := range refusals {
		t.Run(rf.name, func(t *testing.T) {
			rf.cfg.Workers = 1
			s, req := newServer(t, rf.cfg)
			rf.edit(s, &req)
			start := time.Now()
			_, _, err := s.readmit(context.Background(), record(t, req))
			if err == nil || !rf.want(err) {
				t.Fatalf("readmit = %v (status %d)", err, httpStatus(err))
			}
			if waited := time.Since(start); waited > time.Second {
				t.Fatalf("readmit took %v to refuse: it retried a refusal that cannot clear", waited)
			}
		})
	}
}

type admissionRow struct{ status, counter string }

// designAdmissionRows reads the gate table under DESIGN.md §9's
// "Admission control": "order|gate" → its status and counter cells.
func designAdmissionRows(t *testing.T) map[string]admissionRow {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Admission control\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Admission control\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	rows := map[string]admissionRow{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 7 {
			continue
		}
		if order := strings.TrimSpace(cells[1]); len(order) == 1 && order[0] >= '1' && order[0] <= '9' {
			rows[order+"|"+strings.TrimSpace(cells[2])] = admissionRow{
				status:  strings.TrimSpace(cells[4]),
				counter: strings.Trim(strings.TrimSpace(cells[5]), "`"),
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §9 admission table has no rows")
	}
	return rows
}

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
	"symcluster/internal/jobstore"
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
// — over the byte budget, past its deadline, shed by the watermark,
// bounced off a full queue — leaves the job table, the key index and
// the WAL exactly as they were, so the retry Retry-After asks for,
// under the same Idempotency-Key, is a new job that runs. (Before
// admission moved ahead of the journal, a shed async submission was
// journaled, failed, and its key pinned to the failure.)
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
		{"429 watermark", Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 1}, http.StatusTooManyRequests, true, true},
		{"503 queue full", Config{Workers: 1, QueueDepth: 1}, http.StatusServiceUnavailable, true, true},
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
							return s.pool.Busy() == 1 && s.queuedBytes.Load() == 0
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
	s.queuedBytes.Store(10)          // and the watermark, once set, is passed

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	tight, cancelTight := context.WithTimeout(context.Background(), time.Minute)
	defer cancelTight()

	// armed lists the later gates too; ctx arms the deadline gate.
	all := Config{MaxJobBytes: 1, DeadlineThroughput: 1, MaxQueueBytes: 1}
	noBudget := Config{DeadlineThroughput: 1, MaxQueueBytes: 1}
	cases := []struct {
		row   string // "order|gate" in the DESIGN.md table
		armed Config
		ctx   context.Context
		code  int
	}{
		{"1|byte budget", all, expired, 413},
		{"2|deadline", noBudget, expired, 504},
		{"2|deadline", noBudget, tight, 504}, // live, but 1 byte/s cannot fit the job in a minute
		{"2|caller gone", noBudget, gone, 499},
		{"3|queued-byte watermark", noBudget, context.Background(), 429},
		{"4|queue place", Config{DeadlineThroughput: 1}, context.Background(), 503},
	}
	counters := []string{"symclusterd_admission_rejected_total", "symclusterd_deadline_rejected_total", "symclusterd_shed_total"}
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
		s.cfg.MaxJobBytes, s.cfg.DeadlineThroughput, s.cfg.MaxQueueBytes = c.armed.MaxJobBytes, c.armed.DeadlineThroughput, c.armed.MaxQueueBytes
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
		if s.queuedBytes.Load() != 10 || s.pool.QueueDepth() != 1 {
			t.Errorf("%s: a refusal left queued bytes %d, queue depth %d; want 10, 1", c.row, s.queuedBytes.Load(), s.pool.QueueDepth())
		}
	}
	for row := range documented {
		if !produced[row] {
			t.Errorf("DESIGN.md §9 admission row %q is produced by no case here", row)
		}
	}

	// With a place free and nothing armed, the same job is admitted: it
	// holds the place and its estimate counts as queued.
	queued.Release()
	s.cfg.DeadlineThroughput = 4 << 30
	tk, err := s.admit(tight, prep)
	if err != nil {
		t.Fatalf("admit on a free queue: %v", err)
	}
	if tk.est <= 0 || s.queuedBytes.Load() != 10+tk.est || s.pool.QueueDepth() != 1 {
		t.Fatalf("ticket est %d, queued bytes %d, queue depth %d", tk.est, s.queuedBytes.Load(), s.pool.QueueDepth())
	}
	if _, err := s.pool.Reserve(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second reserve beside an admitted job: %v, want ErrQueueFull", err)
	}
	tk.slot.Release()
	release()
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

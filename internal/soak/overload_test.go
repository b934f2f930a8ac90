package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"symcluster/internal/server"
)

// The overload episode (ROADMAP item 9(a)): the rig that makes the
// refusal gate fire. A two-node cluster runs with one worker and a
// two-place queue per node; an unbounded delay at pool.task gives every
// job a service-time floor, so the service rate can be measured and
// then exceeded on purpose. Two open-loop phases arrive at three times
// that rate, alternating between the nodes (so half the arrivals are
// forwarded) and between sync, async and keyed-async: light jobs (aat:
// estimate ≈ 0.2 MB), then heavy ones (dd on the same hub graph:
// estimate ≈ 6 MB). A waiting job is charged only its place, so both
// phases run the queue out of places — 503 — and an ablation of an
// admission gate compares the same arrival schedule.
//
// Keyed submissions are retried under the same key after Retry-After.
// Invariants: 503 was seen and is the only refusal; a refused
// submission left no job behind (the job gauges sum to the distinct
// 202s, before and after a WAL replay); every 202 ends done, every key
// names one job; completed assignments equal a fault-free control.

const (
	overloadArrivals = 24 // per phase
	overloadFactor   = 3  // arrival rate over measured service rate
)

// outcome is what became of one arrival.
type outcome struct {
	method  string
	seed    int64
	key     string
	codes   []int // every status the arrival was answered with, in order
	jobID   string
	assign  string
	arrived time.Time
	latency time.Duration // arrival to answer (sync) or to first seen terminal (async)
}

func runOverloadEpisode(t *testing.T, bin string, ep int) {
	root := t.TempDir()
	a := &node{addr: freeAddr(t), debug: freeAddr(t)}
	b := &node{addr: freeAddr(t), debug: freeAddr(t)}
	defer a.stop()
	defer b.stop()
	nodes := []*node{a, b}
	peers := "http://" + a.addr + ",http://" + b.addr
	// A live node holds its journal's lock, so no node adopts another's
	// queue however saturated it is: the refusals the episode counts are
	// admission's. Failover is the chaos episodes' subject, not this one's.
	sized := []string{"-queue", "2"}
	startNode(t, bin, a, root, peers, "pool.task=delay:60ms", sized...)
	startNode(t, bin, b, root, peers, "pool.task=delay:60ms", sized...)

	graphID := registerGraph(t, a.addr, hubEdges())
	if graphID == "" {
		t.Errorf("overload episode %d: graph registration failed", ep)
		return
	}
	request := func(method string, seed int64, async bool) server.ClusterRequest {
		return server.ClusterRequest{GraphID: graphID, Method: method, Algorithm: "graclus", K: 4, Seed: seed, Async: async}
	}

	// Measure the service time per kind on a quiet cluster, one request
	// at a time, after one that fills the symmetrization cache.
	service := map[string]time.Duration{}
	for _, method := range []string{"aat", "dd"} {
		for i := 0; i < 4; i++ {
			start := time.Now()
			if code, _ := postCluster(a.addr, request(method, 1, false), "", nil); code != http.StatusOK {
				t.Errorf("overload episode %d: quiet %s request answered %d", ep, method, code)
				return
			}
			if i > 0 {
				service[method] += time.Since(start) / 3
			}
		}
	}

	var outcomes []*outcome
	var wg sync.WaitGroup
	loadStart := time.Now()
	for _, method := range []string{"aat", "dd"} {
		interval := service[method] / overloadFactor
		for i := 0; i < overloadArrivals; i++ {
			o := &outcome{method: method, seed: int64(1 + i%3)}
			async := i%2 == 1
			if i%4 == 3 {
				o.key = fmt.Sprintf("overload-%d-%s-%d", ep, method, i)
			}
			outcomes = append(outcomes, o)
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				arrive(addr, request(o.method, o.seed, async), o)
			}(nodes[i%2].addr)
			time.Sleep(interval)
		}
		wg.Wait() // the phases do not overlap
	}

	// Every 202 reaches done; async latency is arrival → first seen terminal.
	jobs := map[string]*outcome{}
	for _, o := range outcomes {
		if o.jobID == "" {
			continue
		}
		if prev, dup := jobs[o.jobID]; dup {
			t.Errorf("job %s answered two submissions (keys %q and %q)", o.jobID, prev.key, o.key)
		}
		jobs[o.jobID] = o
	}
	deadline := time.Now().Add(60 * time.Second)
	for pending := len(jobs); pending > 0; {
		pending = 0
		for id, o := range jobs {
			if o.assign != "" {
				continue
			}
			var info server.JobInfo
			if !getJobInfo(nodes, id, &info) || !terminal(info.State) {
				pending++
				continue
			}
			if info.State != "done" || info.Result == nil || len(info.Result.Assign) == 0 {
				t.Errorf("job %s ended %s (%s) in an episode with no error faults", id, info.State, info.Error)
				return
			}
			o.assign, o.latency = fmt.Sprint(info.Result.Assign), time.Since(o.arrived)
		}
		if pending > 0 && time.Now().After(deadline) {
			t.Errorf("overload episode %d: %d accepted jobs never finished", ep, pending)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	window := time.Since(loadStart)

	// What the clients saw.
	seen := map[int]int{}
	var attempts, refused, completed int
	var admitted []time.Duration
	for _, o := range outcomes {
		for _, code := range o.codes {
			seen[code]++
			attempts++
			switch code {
			case http.StatusOK, http.StatusAccepted:
			case http.StatusServiceUnavailable:
				refused++
			default:
				t.Errorf("(%s, seed %d) answered %d: overload may only refuse with 503", o.method, o.seed, code)
			}
		}
		if o.assign != "" {
			completed++
			admitted = append(admitted, o.latency)
		}
		if o.key != "" && o.jobID == "" {
			t.Errorf("keyed request %q was never admitted (answers %v)", o.key, o.codes)
		}
	}
	if seen[http.StatusServiceUnavailable] == 0 {
		t.Errorf("overload episode %d: the queue never filled: statuses %v", ep, seen)
	}
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	p99 := time.Duration(0)
	if len(admitted) > 0 {
		p99 = admitted[(len(admitted)*99+99)/100-1]
	}
	// Forwarded arrivals the owner shed, relayed once as 503s, summed
	// over both nodes before the restart zeroes them.
	hop503 := int64(0)
	for _, n := range nodes {
		hop503 += hop503s(scrape(t, n.addr))
	}
	t.Logf("overload episode %d: service aat=%v dd=%v; %d attempts, statuses %v; goodput %.1f/s, refused share %.2f, admitted p99 %v, hop 503s %d",
		ep, service["aat"].Round(time.Millisecond), service["dd"].Round(time.Millisecond), attempts, seen,
		float64(completed)/window.Seconds(), float64(refused)/float64(attempts), p99.Round(time.Millisecond), hop503)

	// A refused submission left nothing: the job tables hold exactly
	// the distinct 202s, all done — now, and after a WAL replay.
	checkJobGauges(t, nodes, len(jobs), "after the load")
	a.stop()
	b.stop()
	startNode(t, bin, a, root, peers, "", sized...)
	startNode(t, bin, b, root, peers, "", sized...)
	checkJobGauges(t, nodes, len(jobs), "after a fault-free restart")

	// Completed assignments equal the fault-free control.
	control := map[string]string{}
	for _, o := range outcomes {
		if o.assign == "" {
			continue
		}
		kind := fmt.Sprintf("(%s, seed %d)", o.method, o.seed)
		if _, ok := control[kind]; !ok {
			code, body := postCluster(a.addr, request(o.method, o.seed, false), "", nil)
			var cr server.ClusterResponse
			if code != http.StatusOK || json.Unmarshal(body, &cr) != nil {
				t.Errorf("control run for %s answered %d", kind, code)
				return
			}
			control[kind] = fmt.Sprint(cr.Assign)
		}
		if o.assign != control[kind] {
			t.Errorf("%s diverged from the fault-free control:\n  overload %s\n  control  %s", kind, o.assign, control[kind])
		}
	}
}

// arrive sends one request and records every answer (the episode reads
// them once the arrival's goroutine is done). A keyed
// submission that is refused comes back under the same key after the
// Retry-After it was given.
func arrive(addr string, req server.ClusterRequest, o *outcome) {
	o.arrived = time.Now()
	for attempt := 0; attempt < 60; attempt++ {
		var hdr http.Header
		code, body := postCluster(addr, req, o.key, &hdr)
		o.codes = append(o.codes, code)
		switch code {
		case http.StatusOK:
			var cr server.ClusterResponse
			if json.Unmarshal(body, &cr) == nil {
				o.assign, o.latency = fmt.Sprint(cr.Assign), time.Since(o.arrived)
			}
			return
		case http.StatusAccepted:
			var ref server.JobRef
			if json.Unmarshal(body, &ref) == nil {
				o.jobID = ref.JobID
			}
			return
		}
		retryAfter, err := strconv.Atoi(hdr.Get("Retry-After"))
		if o.key == "" || err != nil {
			return
		}
		time.Sleep(time.Duration(retryAfter) * time.Second)
	}
}

// postCluster posts one clustering request; code 0 is a transport error.
func postCluster(addr string, req server.ClusterRequest, key string, hdr *http.Header) (int, []byte) {
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/cluster", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	hr.Header.Set("Content-Type", "application/json")
	if key != "" {
		hr.Header.Set("Idempotency-Key", key)
	}
	resp, err := soakClient.Do(hr)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if hdr != nil {
		*hdr = resp.Header
	}
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// checkJobGauges sums symclusterd_jobs{state} over the nodes: want jobs
// in all, every one of them done.
func checkJobGauges(t *testing.T, nodes []*node, want int, when string) {
	t.Helper()
	byState := map[string]int{}
	total := 0
	for _, n := range nodes {
		for _, line := range strings.Split(scrape(t, n.addr), "\n") {
			rest, ok := strings.CutPrefix(line, `symclusterd_jobs{state="`)
			if !ok {
				continue
			}
			state, value, _ := strings.Cut(rest, `"} `)
			v, _ := strconv.Atoi(strings.TrimSpace(value))
			byState[state] += v
			total += v
		}
	}
	if total != want || byState["done"] != want {
		t.Errorf("%s the job tables hold %v, want exactly the %d accepted jobs, all done: a refusal left a record behind", when, byState, want)
	}
}

// hubEdges is a 4×100 block graph whose every node also links to three
// hubs: the admission estimate charges Σ colCount², so dd on it is
// estimated at ≈ 6 MB and aat at ≈ 0.2 MB while both run in
// milliseconds — thirty times apart for the byte estimate, equally
// cheap for the worker and equally charged by the queue.
func hubEdges() string {
	x := uint64(11)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	var b strings.Builder
	const blocks, size, hubs = 4, 100, 3
	for i := 0; i < blocks*size; i++ {
		for d := 0; d < 4; d++ {
			if j := (i/size)*size + int(next()%uint64(size)); j != i {
				fmt.Fprintf(&b, "%d %d\n", i, j)
			}
		}
		for h := 0; h < hubs; h++ {
			if h != i {
				fmt.Fprintf(&b, "%d %d\n", i, h)
			}
		}
	}
	return b.String()
}

package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"symcluster/internal/server"
)

// instance is one set-up of a workload: its seed-derived inputs and the
// servers booted, filled and warmed up for it.
type instance struct {
	def    workloadDef
	sz     sizes
	seed   int64
	fleet  *fleet
	bases  []*rmatBase     // sym_cold
	graphs []*servingGraph // mcl_hot, serve_mixed
	block  []mixedOp       // serve_mixed
}

// opResult is what one op left behind for the metrics and the gate.
type opResult struct {
	index int
	// class groups ops that take the same path through the service
	// (kind, proxied or direct, method); the first op of each class is
	// replayed against the library.
	class string
	// key identifies the request: ops with the same key must return the
	// same assignment.
	key string
	// input names what was clustered: an R-MAT (base, variant) pair or
	// a serving graph.
	base, variant, graph int
	req                  server.ClusterRequest
	proxied              bool
	latency              time.Duration
	done                 time.Duration // completion, since the stretch began
	cpuDone              time.Duration // process CPU at completion, since the stretch began
	res                  *clusterResult
	err                  error
}

// setUp is everything a run does before its first measured op:
// generation, boot, pre-registration, cache fill and untimed warm-up
// ops. setup_s times the whole of it.
func setUp(def workloadDef, sz sizes, seed int64, outDir string) (*instance, error) {
	in := &instance{def: def, sz: sz, seed: seed}
	var err error
	if def.name == symCold {
		in.bases = make([]*rmatBase, rmatBases)
		for i := range in.bases {
			if in.bases[i], err = newRMATBase(sz.rmatScale, seed*1000+int64(i)); err != nil {
				return nil, err
			}
		}
	} else {
		if in.graphs, err = servingSet(sz, seed, def.nodes); err != nil {
			return nil, err
		}
		if def.name == serveMixed {
			in.block = mixedBlock(seed)
		}
	}
	if in.fleet, err = bootFleet(def.nodes, def.clients, filepath.Join(outDir, "spill")); err != nil {
		return nil, err
	}
	if err := in.fill(); err != nil {
		in.tearDown()
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return in, nil
}

func (in *instance) tearDown() { in.fleet.shutdown() }

// methodsUsed lists the symmetrizations a workload's ops request.
func (in *instance) methodsUsed() []string {
	if in.def.name == serveMixed {
		return []string{"dd", "aat", "bib", "rw"}
	}
	return []string{"dd"}
}

// fill pre-registers the serving graphs, symmetrizes every (graph,
// method) pair the ops will ask for — through a cheap graclus request,
// since the cache is keyed by graph and symmetrization alone — and runs
// the warm-up ops.
func (in *instance) fill() error {
	for gi, g := range in.graphs {
		info, err := in.fleet.register(in.fleet.entry(), g.text, "")
		if err != nil {
			return err
		}
		if info.ID != g.id {
			return fmt.Errorf("graph %d registered as %s, want %s", gi, info.ID, g.id)
		}
		for _, m := range in.methodsUsed() {
			req := in.servingRequest(gi, m, "graclus", 1, false)
			if _, err := in.fleet.clusterSync(in.fleet.entry(), &req); err != nil {
				return err
			}
		}
	}
	for w := 0; w < in.sz.warmups; w++ {
		var r opResult
		if in.def.name == symCold {
			r = in.coldOp(w%rmatBases, -1-w/rmatBases, nil)
		} else {
			r = in.op(w, nil)
		}
		if r.err != nil {
			return fmt.Errorf("warm-up op %d: %w", w, r.err)
		}
	}
	return nil
}

// servingRequest is the clustering request of one serving-graph op.
func (in *instance) servingRequest(gi int, method, algo string, seed int64, async bool) server.ClusterRequest {
	req := server.ClusterRequest{
		GraphID: in.graphs[gi].id, Method: method, Algorithm: algo, Seed: seed, Async: async,
	}
	if algo != "mcl" {
		req.K = in.graphs[gi].ds.Truth.K
	}
	if method == "dd" {
		req.Threshold = ddThresholdHot
	} else if method == "bib" {
		req.Threshold = bibThreshold
	}
	return req
}

// op runs schedule entry i. Schedules are cycled by op index, so a run
// of any length does the same mix.
func (in *instance) op(i int, tr *opTrace) opResult {
	if in.def.name == symCold {
		return in.coldOp(i%rmatBases, i/rmatBases, tr)
	}
	if in.def.name == mclHot {
		gi := i % len(in.graphs)
		return in.servingOp(gi, in.servingRequest(gi, "dd", "mcl", int64(i), false), tr)
	}
	e := in.block[i%len(in.block)]
	half := len(in.graphs) / 2
	gi := (e.slot + i/len(in.block)) % half
	if e.proxied {
		gi += half
	}
	return in.servingOp(gi, in.servingRequest(gi, e.method, e.algo, 1, e.async), tr)
}

// coldOp uploads variant v of an R-MAT base, which the server has never
// seen, and clusters it synchronously.
func (in *instance) coldOp(base, variant int, tr *opTrace) opResult {
	r := opResult{base: base, variant: variant, class: "sync/direct/dd/graclus"}
	b := in.bases[base]
	start := time.Now()
	root := tr.begin(-1, "op")
	step := tr.begin(root, "register")
	info, err := in.fleet.register(in.fleet.entry(), b.text, b.repeatLine(variant))
	tr.end(step)
	if err == nil {
		r.req = server.ClusterRequest{
			GraphID: info.ID, Method: "dd", Algorithm: "graclus",
			K: in.sz.rmatK, Threshold: ddThresholdCold, Seed: 1,
		}
		r.key = requestKey(&r.req)
		step = tr.begin(root, "cluster_sync")
		r.res, err = in.fleet.clusterSync(in.fleet.entry(), &r.req)
		tr.end(step)
		tr.reported(step, r.res)
	}
	tr.end(root)
	r.latency, r.err = time.Since(start), err
	return r
}

// servingOp clusters a pre-registered graph: synchronously, or by
// submitting a job and polling it every pollEvery ms until it is done.
func (in *instance) servingOp(gi int, req server.ClusterRequest, tr *opTrace) opResult {
	r := opResult{graph: gi, req: req, proxied: in.graphs[gi].proxied}
	kind, path := "sync", "direct"
	if req.Async {
		kind = "async"
	}
	if r.proxied {
		path = "proxied"
	}
	r.class = kind + "/" + path + "/" + req.Method + "/" + req.Algorithm
	r.key = requestKey(&req)
	start := time.Now()
	root := tr.begin(-1, "op")
	if !req.Async {
		step := tr.begin(root, "cluster_sync")
		r.res, r.err = in.fleet.clusterSync(in.fleet.entry(), &req)
		tr.end(step)
		tr.reported(step, r.res)
	} else {
		r.res, r.err = in.runAsync(&req, root, tr)
	}
	tr.end(root)
	r.latency = time.Since(start)
	return r
}

func (in *instance) runAsync(req *server.ClusterRequest, root int, tr *opTrace) (*clusterResult, error) {
	step := tr.begin(root, "submit")
	var ref server.JobRef
	err := in.fleet.postCluster(in.fleet.entry(), req, http.StatusAccepted, &ref)
	tr.end(step)
	if err != nil {
		return nil, err
	}
	step = tr.begin(root, "await_job")
	res, err := in.awaitJob(ref.JobID, step, tr)
	tr.end(step)
	tr.reported(step, res)
	return res, err
}

func (in *instance) awaitJob(id string, parent int, tr *opTrace) (*clusterResult, error) {
	for {
		time.Sleep(pollEvery * time.Millisecond)
		poll := tr.begin(parent, "poll")
		st, err := in.fleet.pollJob(in.fleet.entry(), id)
		tr.end(poll)
		if err != nil {
			return nil, err
		}
		if st.State == "done" && st.Result != nil {
			return st.Result, nil
		}
		if st.State != "pending" && st.State != "running" {
			return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}

// requestKey is the identity of a clustering request, transport
// (sync/async) aside.
func requestKey(req *server.ClusterRequest) string {
	return fmt.Sprintf("%s|%s|%s|%d|%g|%d", req.GraphID, req.Method, req.Algorithm, req.K, req.Threshold, req.Seed)
}

// segment is the ops between two pauses of a measured loop.
type segment struct {
	lo, n    int           // st.ops[lo : lo+n]
	start    time.Duration // since the loop began
	cpuStart time.Duration // process CPU since the loop began
}

// stretch is one measured closed loop: segments of ops with a pause for
// reference ticks before each and after the last.
type stretch struct {
	first    int        // schedule index of the first op
	ops      []opResult // by schedule index
	segments []segment
	ticks    []float64     // reference-kernel ticks of the pauses, ms
	wall     time.Duration // pauses left out
	cpu      time.Duration // process user+sys, pauses left out
	allocMB  float64       // TotalAlloc growth over the loop
	traces   []*opTrace    // traced stretches only
	okCount  int
	failures []error
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the workload's closed loop, one segment of def.unit ops
// at a time: each of def.clients callers claims the next schedule
// index of the segment and runs that op until the segment is used up.
// Between segments every caller is idle while the reference kernel
// ticks. Segments are started until the time (or, at smoke scale, the
// op cap) is used up; a started segment finishes and counts.
func (in *instance) measure(first int, limit time.Duration, traced bool) *stretch {
	st := &stretch{first: first}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	st.ticks = ref.ticks(st.ticks, in.sz.pauseTicks)
	for done := 0; time.Since(start) < limit && (in.sz.maxOps == 0 || done < in.sz.maxOps); {
		n := in.def.unit
		if in.sz.maxOps > 0 {
			n = min(n, in.sz.maxOps-done)
		}
		seg := segment{lo: done, n: n, start: time.Since(start), cpuStart: processCPU() - cpu0}
		results := make([]opResult, n)
		traces := make([]*opTrace, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < in.def.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					index := first + done + i
					if traced {
						traces[i] = &opTrace{op: index, epoch: start}
					}
					r := in.op(index, traces[i])
					r.index, r.done, r.cpuDone = index, time.Since(start), processCPU()-cpu0
					results[i] = r
				}
			}()
		}
		wg.Wait()
		st.wall += time.Since(start) - seg.start
		st.cpu += processCPU() - cpu0 - seg.cpuStart
		st.ops = append(st.ops, results...)
		if traced {
			st.traces = append(st.traces, traces...)
		}
		st.segments = append(st.segments, seg)
		done += n
		st.ticks = ref.ticks(st.ticks, in.sz.pauseTicks)
	}
	runtime.ReadMemStats(&after)
	st.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	for _, t := range st.traces {
		t.finish()
	}
	for i := range st.ops {
		if err := st.ops[i].err; err != nil {
			st.failures = append(st.failures, fmt.Errorf("op %d (%s): %w", st.ops[i].index, st.ops[i].class, err))
		} else {
			st.okCount++
		}
	}
	return st
}

package server

import (
	"runtime"
	"strconv"
	"time"

	"symcluster/internal/csr"
	"symcluster/internal/obs"
)

// Metrics is the daemon's metric surface: an obs.Registry holding every
// symclusterd_* family — the request histogram, the refusal counters,
// build info, and the live cache/pool/job-table values, which are
// callbacks read at scrape time rather than double-bookkept — and the
// families of spanTable, read off every trace segment the daemon
// exports (export). /metrics is the registry's exposition and nothing
// else.
//
// Naming convention: symclusterd_* for serving metrics owned by this
// package, symcluster_* for library/kernel metrics, read off the spans
// the kernels open (see DESIGN.md §11).
type Metrics struct {
	reg *obs.Registry

	requests         *obs.Counter
	requestSeconds   *obs.Histogram
	cacheObjectBytes *obs.Histogram
	spans            map[string][]spanFeed // by span name
	jobs             *obs.Gauge

	// What refused or rerouted a clustering job (DESIGN.md §9,
	// "Admission control").
	admissionReject  *obs.Counter
	deadlineRejected *obs.Counter
	oocJobs          *obs.Counter

	// Cluster-mode families. Registered unconditionally (zero in
	// single-node mode) so dashboards need not branch on deployment.
	proxyRequests  *obs.Counter
	jobsAdopted    *obs.Counter
	uploadsExpired *obs.Counter
}

// NewMetrics returns a registry with the daemon's own families
// registered; bind adds the ones read live off a Server.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg: reg,
		requests: reg.Counter("symclusterd_requests_total",
			"Requests served, by route pattern and status code.", "route", "code"),
		requestSeconds: reg.Histogram("symclusterd_request_seconds",
			"Request latency in seconds, by route pattern.", obs.DurationBuckets, "route"),
		cacheObjectBytes: reg.Histogram("symclusterd_cache_object_bytes",
			"Resident size of symmetrized graphs inserted into the cache.", obs.SizeBuckets),
		jobs: reg.Gauge("symclusterd_jobs", "Async jobs by state.", "state"),
		admissionReject: reg.Counter("symclusterd_admission_rejected_total",
			"Clustering requests rejected by the working-set byte budget."),
		deadlineRejected: reg.Counter("symclusterd_deadline_rejected_total",
			"Requests fast-failed with 504 because their propagated deadline expired, at submit or while queued."),
		oocJobs: reg.Counter("symclusterd_ooc_jobs_total",
			"Clustering jobs admitted on the out-of-core path."),
		proxyRequests: reg.Counter("symclusterd_proxy_requests_total",
			"Requests forwarded to the owning peer, by peer and relayed status code.", "peer", "code"),
		jobsAdopted: reg.Counter("symclusterd_jobs_adopted_total",
			"Pending jobs adopted from a dead peer's WAL and resumed locally."),
		uploadsExpired: reg.Counter("symclusterd_upload_sessions_expired_total",
			"Chunked-upload sessions reaped after exceeding the idle TTL."),
	}
	// Touch the unlabeled counters so the families appear in the
	// exposition before the first event (tests and dashboards rely on
	// the zero line).
	for _, c := range []*obs.Counter{m.admissionReject, m.deadlineRejected, m.oocJobs,
		m.jobsAdopted, m.uploadsExpired} {
		c.Add(0)
	}
	m.spans = make(map[string][]spanFeed)
	for _, row := range spanTable {
		f := spanFeed{spanRow: row}
		if row.buckets == nil {
			f.counter = reg.Counter(row.family, row.help, row.labels...)
		} else {
			f.hist = reg.Histogram(row.family, row.help, row.buckets, row.labels...)
		}
		m.spans[row.span] = append(m.spans[row.span], f)
	}
	hierarchy := reg.Counter("symclusterd_hierarchy_total", "", "result") // its spanTable row's
	hierarchy.Add(0, "hit")
	hierarchy.Add(0, "built")
	reg.Gauge("symclusterd_build_info",
		"Build metadata; the value is always 1.", "version", "go_version").
		Set(1, obs.Version, runtime.Version())
	obs.RegisterRuntimeMetrics(reg, "symclusterd")
	return m
}

// spanRow is one row of spanTable: the family that one attribute feeds,
// on every span of one name in an exported tree that carries it. A row
// with buckets observes the numeric attribute (attr "": the span's wall
// clock in seconds); one without counts the spans. The label values are
// the string attributes labels names, or what series reads off the
// span, whose false skips it.
type spanRow struct {
	span, attr   string
	family, help string
	buckets      []float64
	labels       []string
	series       func(n *obs.SpanNode) ([]string, bool)
}

// spanFeed is a registered row.
type spanFeed struct {
	spanRow
	hist    *obs.Histogram
	counter *obs.Counter
}

// spanTable is every family read off the span trees: the per-solve and
// per-file kernel families (symcluster_*) and the stage and hierarchy
// families of the daemon. To record a new fact, open a span, set the
// attribute, and add a row here (DESIGN.md §11).
var spanTable = []spanRow{
	{span: "symmetrize", family: "symclusterd_stage_seconds", buckets: obs.DurationBuckets, labels: []string{"stage", "name"},
		help: stageHelp, series: stage},
	{span: "cluster", family: "symclusterd_stage_seconds", buckets: obs.DurationBuckets, labels: []string{"stage", "name"},
		help: stageHelp, series: stage},
	{span: "multilevel.coarsen", attr: "cache_hit", family: "symclusterd_hierarchy_total", labels: []string{"result"},
		help:   "Coarsenings asked of a cache entry's hierarchy memo, by result: hit (served from the kept hierarchy) or built.",
		series: hierarchy},
	{span: "multilevel.coarsen", attr: "levels", family: "symcluster_coarsen_levels", buckets: obs.CountBuckets,
		help: "Levels per coarsening hierarchy."},
	{span: "multilevel.coarsen", attr: "coarsest_nodes", family: "symcluster_coarsen_coarsest_nodes", buckets: obs.SizeBuckets,
		help: "Coarsest-level node count per hierarchy."},
	{span: "mcl.iterate", attr: "iterations", family: "symcluster_mcl_iterations", buckets: obs.CountBuckets,
		help: "R-MCL iterations per solve."},
	{span: "walk.power", attr: "iterations", family: "symcluster_walk_power_iterations", buckets: obs.CountBuckets,
		help: "Power iterations per stationary-distribution solve."},
	{span: "spectral.lanczos", attr: "basis_size", family: "symcluster_lanczos_basis_size", buckets: obs.CountBuckets,
		help: "Krylov basis size per Lanczos factorisation."},
	{span: "mcl.checkpoint", attr: "bytes", family: "symcluster_checkpoint_bytes", buckets: obs.SizeBuckets, labels: []string{"kernel"},
		help: "Serialized checkpoint snapshot size in bytes."},
	{span: "walk.checkpoint", attr: "bytes", family: "symcluster_checkpoint_bytes", buckets: obs.SizeBuckets, labels: []string{"kernel"},
		help: "Serialized checkpoint snapshot size in bytes."},
	{span: "core.symmetrize", attr: "nnz_in", family: "symcluster_symmetrize_nnz_in", buckets: obs.SizeBuckets, labels: []string{"method"},
		help: "Directed adjacency nonzeros entering symmetrization."},
	{span: "core.symmetrize", attr: "nnz_out", family: "symcluster_symmetrize_nnz_out", buckets: obs.SizeBuckets, labels: []string{"method"},
		help: "Undirected nonzeros produced by symmetrization."},
	{span: "core.symmetrize", attr: "pruned_entries", family: "symcluster_symmetrize_pruned_entries", buckets: obs.SizeBuckets, labels: []string{"method"},
		help: "Product entries killed by the prune threshold per symmetrization."},
	{span: "csr.write", attr: "bytes", family: "symcluster_csr_write_bytes", buckets: obs.SizeBuckets,
		help: "Binary CSR file bytes written per csr.Writer.Close."},
	{span: "csr.mmap", attr: "bytes", family: "symcluster_csr_mapped_bytes", buckets: obs.SizeBuckets,
		help: "Binary CSR file bytes opened per csr.Open."},
	{span: "csr.ingest.merge", attr: "spill_runs", family: "symcluster_csr_spill_runs", buckets: obs.CountBuckets,
		help: "Spill runs written per streaming CSR ingestion."},
	{span: "csr.ingest.merge", attr: "merged_bytes", family: "symcluster_csr_merged_bytes", buckets: obs.SizeBuckets,
		help: "Bytes streamed through the ingest k-way merge."},
}

const stageHelp = "Executed pipeline-stage wall clock in seconds (cache hits are not observed)."

// stage labels a stage span's wall clock by stage and registry name,
// skipping a symmetrize stage the cache answered.
func stage(n *obs.SpanNode) ([]string, bool) {
	name, _ := n.Attrs["name"].(string)
	return []string{n.Name, name}, n.Attrs["cache_hit"] != true
}

// hierarchy labels a coarsening a memo answered (one carrying
// cache_hit) by whether it was a hit.
func hierarchy(n *obs.SpanNode) ([]string, bool) {
	if n.Attrs["cache_hit"] == true {
		return []string{"hit"}, true
	}
	return []string{"built"}, true
}

// fold feeds every span of an exported tree to its spanTable rows. A
// span that ended in error, or never ended, is skipped (its children are
// not): the families count what completed.
func (m *Metrics) fold(n *obs.SpanNode) {
	if n == nil {
		return
	}
	if n.Error == "" && n.EndUnixNano != 0 {
		for _, f := range m.spans[n.Name] {
			f.feed(n)
		}
	}
	for _, c := range n.Children {
		m.fold(c)
	}
}

func (f *spanFeed) feed(n *obs.SpanNode) {
	v, ok := n.DurationMillis/1000, true
	switch {
	case f.attr == "":
	case f.hist != nil:
		v, ok = n.Number(f.attr)
	default:
		_, ok = n.Attrs[f.attr]
	}
	if !ok {
		return
	}
	var labels []string
	if f.series != nil {
		if labels, ok = f.series(n); !ok {
			return
		}
	} else {
		for _, l := range f.labels {
			value, _ := n.Attrs[l].(string)
			labels = append(labels, value)
		}
	}
	if f.hist != nil {
		f.hist.Observe(v, labels...)
	} else {
		f.counter.Inc(labels...)
	}
}

// bind registers the families whose value lives in the server's cache,
// pool, job table, WAL or trace ring. The durability families are
// always present (zero without -data-dir) so dashboards and the
// crash-recovery tests can poll them unconditionally.
func (m *Metrics) bind(s *Server) {
	live := func(name, help string, typ obs.MetricType, read func() int64) {
		m.reg.Func(name, help, typ, func() float64 { return float64(read()) })
	}
	live("symclusterd_cache_hits_total", "Symmetrization cache hits.", obs.TypeCounter,
		func() int64 { hits, _, _ := s.cache.Stats(); return hits })
	live("symclusterd_cache_misses_total", "Symmetrization cache misses.", obs.TypeCounter,
		func() int64 { _, misses, _ := s.cache.Stats(); return misses })
	live("symclusterd_cache_evictions_total", "Symmetrization cache evictions.", obs.TypeCounter,
		func() int64 { _, _, evictions := s.cache.Stats(); return evictions })
	live("symclusterd_cache_bytes", "Bytes resident in the symmetrization cache.", obs.TypeGauge, s.cache.Bytes)
	live("symclusterd_cache_entries", "Entries resident in the symmetrization cache.", obs.TypeGauge,
		func() int64 { return int64(s.cache.Len()) })

	live("symclusterd_queue_depth", "Tasks waiting for a worker.", obs.TypeGauge,
		func() int64 { return int64(s.pool.QueueDepth()) })
	live("symclusterd_workers_busy", "Workers currently running a task.", obs.TypeGauge,
		func() int64 { return int64(s.pool.Busy()) })
	live("symclusterd_workers_total", "Worker-pool size.", obs.TypeGauge,
		func() int64 { return int64(s.pool.Workers()) })
	live("symclusterd_panics_recovered_total", "Worker panics recovered.", obs.TypeCounter, s.pool.PanicsRecovered)

	live("symclusterd_csr_mapped_bytes", "Bytes of binary CSR files currently memory-mapped.", obs.TypeGauge, csr.MappedBytes)

	live("symclusterd_jobs_expired_total", "Finished async jobs dropped by TTL expiry.", obs.TypeCounter, s.jobs.Expired)
	live("symclusterd_checkpoints_total", "Kernel checkpoints journaled to the WAL.", obs.TypeCounter, s.jobs.CheckpointSaves)
	live("symclusterd_jobs_replayed_total", "Interrupted jobs replayed as pending at startup.", obs.TypeCounter, s.jobs.Replayed)
	live("symclusterd_wal_bytes", "Current size of the job WAL in bytes.", obs.TypeGauge, s.jobs.LogBytes)
	live("symclusterd_wal_appends_total", "Records appended to the job WAL.", obs.TypeCounter, s.jobs.Appends)
	live("symclusterd_wal_compactions_total", "Job WAL compactions performed.", obs.TypeCounter, s.jobs.Compactions)
}

// ObserveRequest records one served request on a route with its status
// code and duration.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.requests.Inc(route, strconv.Itoa(code))
	m.requestSeconds.Observe(d.Seconds(), route)
}

// IncProxyRequest counts one request forwarded to a peer, labeled by
// the peer name and the status code relayed to the client (503 when the
// peer was unreachable).
func (m *Metrics) IncProxyRequest(peer string, code int) {
	m.proxyRequests.Inc(peer, strconv.Itoa(code))
}

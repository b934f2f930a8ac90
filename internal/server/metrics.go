package server

import (
	"runtime"
	"strconv"
	"time"

	"symcluster/internal/csr"
	"symcluster/internal/obs"
)

// Metrics is the daemon's metric surface: an obs.Registry holding every
// symclusterd_* family — the request/stage histograms, the refusal
// counters, build info, and the live cache/pool/job-table values, which
// are callbacks read at scrape time rather than double-bookkept — and,
// via obs.WithMeter on request contexts, every kernel-level
// symcluster_* histogram the compute underneath records. /metrics is
// the registry's exposition and nothing else.
//
// Naming convention: symclusterd_* for serving metrics owned by this
// package, symcluster_* for library/kernel metrics recorded through
// the hooks in internal/obs (see DESIGN.md §11).
type Metrics struct {
	reg *obs.Registry

	requests         *obs.Counter
	requestSeconds   *obs.Histogram
	stageSeconds     *obs.Histogram
	cacheObjectBytes *obs.Histogram
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
		stageSeconds: reg.Histogram("symclusterd_stage_seconds",
			"Executed pipeline-stage wall clock in seconds (cache hits are not observed).", obs.DurationBuckets, "stage", "name"),
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
	obs.HierarchyCounter(reg).Add(0, "hit")
	obs.HierarchyCounter(reg).Add(0, "built")
	reg.Gauge("symclusterd_build_info",
		"Build metadata; the value is always 1.", "version", "go_version").
		Set(1, obs.Version, runtime.Version())
	obs.RegisterRuntimeMetrics(reg, "symclusterd")
	return m
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
	live("symclusterd_trace_ring_bytes", "Rendered-JSON bytes retained in the in-memory trace ring.", obs.TypeGauge, s.traces.RingBytes)

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

package server

import (
	"io"
	"runtime"
	"strconv"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// Metrics is the daemon's metric surface: an obs.Registry holding the
// request/stage histograms, admission counters, build info, and — via
// obs.WithMeter on request contexts — every kernel-level
// symcluster_* histogram the compute underneath records. The /metrics
// exposition renders the registry plus the live cache/pool/job gauges,
// which are read at scrape time rather than double-bookkept.
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
	admissionReject  *obs.Counter

	// Overload-survival families (PR 10): deadline fast-fails, breaker
	// positions and denied retries.
	deadlineRejected *obs.Counter
	breakerState     *obs.Gauge
	retryExhausted   *obs.Counter

	// Cluster-mode families. Registered unconditionally (zero in
	// single-node mode) so dashboards need not branch on deployment.
	proxyRequests  *obs.Counter
	proxyRetries   *obs.Counter
	peerUnhealthy  *obs.Gauge
	jobsAdopted    *obs.Counter
	uploadsExpired *obs.Counter
}

// NewMetrics returns a registry with the daemon families registered.
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
		admissionReject: reg.Counter("symclusterd_admission_rejected_total",
			"Clustering requests rejected by the working-set byte budget."),
		deadlineRejected: reg.Counter("symclusterd_deadline_rejected_total",
			"Requests fast-failed with 504 because their propagated deadline expired (at submit or while queued) or their remaining budget cannot fit the estimated runtime."),
		breakerState: reg.Gauge("symclusterd_breaker_state",
			"Circuit-breaker position per peer: 0 closed, 1 half-open, 2 open.", "peer"),
		retryExhausted: reg.Counter("symclusterd_retry_budget_exhausted_total",
			"Retries denied because the token-bucket retry budget was empty."),
		proxyRequests: reg.Counter("symclusterd_proxy_requests_total",
			"Requests forwarded to the owning peer, by peer and relayed status code.", "peer", "code"),
		proxyRetries: reg.Counter("symclusterd_proxy_retries_total",
			"Proxy forward attempts retried after a transport error or shed status."),
		peerUnhealthy: reg.Gauge("symclusterd_peer_unhealthy",
			"1 while the named peer is considered down by this node's health checker.", "peer"),
		jobsAdopted: reg.Counter("symclusterd_jobs_adopted_total",
			"Pending jobs adopted from a dead peer's WAL and resumed locally."),
		uploadsExpired: reg.Counter("symclusterd_upload_sessions_expired_total",
			"Chunked-upload sessions reaped after exceeding the idle TTL."),
	}
	// Touch the unlabeled counters so the families appear in the
	// exposition before the first event (tests and dashboards rely on
	// the zero line).
	m.admissionReject.Add(0)
	m.deadlineRejected.Add(0)
	m.retryExhausted.Add(0)
	m.proxyRetries.Add(0)
	m.jobsAdopted.Add(0)
	m.uploadsExpired.Add(0)
	reg.Gauge("symclusterd_build_info",
		"Build metadata; the value is always 1.", "version", "go_version").
		Set(1, obs.Version, runtime.Version())
	obs.RegisterRuntimeMetrics(reg, "symclusterd")
	return m
}

// Registry exposes the underlying obs registry; request contexts carry
// it (obs.WithMeter) so kernel hooks record into the same exposition.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveStage records the wall clock of one executed pipeline stage
// (cache hits are not observed — only work actually done).
func (m *Metrics) ObserveStage(stage, name string, seconds float64) {
	m.stageSeconds.Observe(seconds, stage, name)
}

// ObserveRequest records one served request on a route with its status
// code and duration.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.requests.Inc(route, strconv.Itoa(code))
	m.requestSeconds.Observe(d.Seconds(), route)
}

// ObserveCacheObject records the byte size of one cache insert.
func (m *Metrics) ObserveCacheObject(bytes int64) {
	m.cacheObjectBytes.Observe(float64(bytes))
}

// IncAdmissionRejected counts one clustering request rejected by the
// working-set byte budget.
func (m *Metrics) IncAdmissionRejected() { m.admissionReject.Inc() }

// IncDeadlineRejected counts one request fast-failed 504 by the
// deadline gate (expired at submit, unfittable budget, or expired in
// the queue).
func (m *Metrics) IncDeadlineRejected() { m.deadlineRejected.Inc() }

// SetBreakerState records one peer's circuit-breaker position.
func (m *Metrics) SetBreakerState(peer string, state cluster.BreakerState) {
	var v float64
	switch state {
	case cluster.BreakerHalfOpen:
		v = 1
	case cluster.BreakerOpen:
		v = 2
	}
	m.breakerState.Set(v, peer)
}

// IncRetryBudgetExhausted counts one denied retry.
func (m *Metrics) IncRetryBudgetExhausted() { m.retryExhausted.Inc() }

// RetryBudgetExhaustedValue reads the denied-retry counter back for the
// cluster status plane.
func (m *Metrics) RetryBudgetExhaustedValue() int64 { return int64(m.retryExhausted.Value()) }

// IncProxyRequest counts one request forwarded to a peer, labeled by
// the peer name and the status code relayed to the client (502 when the
// forward itself failed).
func (m *Metrics) IncProxyRequest(peer string, code int) {
	m.proxyRequests.Inc(peer, strconv.Itoa(code))
}

// IncProxyRetry counts one retried proxy forward attempt.
func (m *Metrics) IncProxyRetry() { m.proxyRetries.Inc() }

// SetPeerUnhealthy flips the named peer's unhealthy gauge.
func (m *Metrics) SetPeerUnhealthy(peer string, down bool) {
	v := 0.0
	if down {
		v = 1.0
	}
	m.peerUnhealthy.Set(v, peer)
}

// IncJobsAdopted counts one pending job adopted from a dead peer's WAL.
func (m *Metrics) IncJobsAdopted() { m.jobsAdopted.Inc() }

// JobsAdoptedValue reads the adoption counter back for the cluster
// status plane.
func (m *Metrics) JobsAdoptedValue() int64 { return int64(m.jobsAdopted.Value()) }

// IncUploadExpired counts one chunked-upload session reaped by the idle
// TTL sweeper.
func (m *Metrics) IncUploadExpired() { m.uploadsExpired.Inc() }

// WriteTo renders the exposition: the registry families first, then the
// live gauges read from the server's cache, pool, job store and WAL at
// scrape time.
func (m *Metrics) WriteTo(w io.Writer, s *Server) {
	cache, pool, jobs := s.cache, s.pool, s.jobs
	m.reg.WriteText(w)

	p := func(help, typ, name string, v int64) {
		io.WriteString(w, "# HELP "+name+" "+help+"\n")
		io.WriteString(w, "# TYPE "+name+" "+typ+"\n")
		io.WriteString(w, name+" "+strconv.FormatInt(v, 10)+"\n")
	}
	hits, misses, evictions := cache.Stats()
	p("Symmetrization cache hits.", "counter", "symclusterd_cache_hits_total", hits)
	p("Symmetrization cache misses.", "counter", "symclusterd_cache_misses_total", misses)
	p("Symmetrization cache evictions.", "counter", "symclusterd_cache_evictions_total", evictions)
	p("Bytes resident in the symmetrization cache.", "gauge", "symclusterd_cache_bytes", cache.Bytes())
	p("Entries resident in the symmetrization cache.", "gauge", "symclusterd_cache_entries", int64(cache.Len()))

	p("Tasks waiting for a worker.", "gauge", "symclusterd_queue_depth", int64(pool.QueueDepth()))
	p("Workers currently running a task.", "gauge", "symclusterd_workers_busy", int64(pool.Busy()))
	p("Worker-pool size.", "gauge", "symclusterd_workers_total", int64(pool.Workers()))
	p("Worker panics recovered.", "counter", "symclusterd_panics_recovered_total", pool.PanicsRecovered())
	p("Finished async jobs dropped by TTL expiry.", "counter", "symclusterd_jobs_expired_total", jobs.Expired())

	// Durability surface. The families are always present (zero without
	// -data-dir) so dashboards and the crash-recovery tests can poll
	// them unconditionally.
	p("Clustering requests shed by the queued-byte watermark.", "counter", "symclusterd_shed_total", s.shedTotal.Load())
	p("Clustering jobs admitted on the out-of-core path.", "counter", "symclusterd_ooc_jobs_total", s.oocTotal.Load())
	p("Bytes of binary CSR files currently memory-mapped.", "gauge", "symclusterd_csr_mapped_bytes", csr.MappedBytes())
	p("Rendered-JSON bytes retained in the in-memory trace ring.", "gauge", "symclusterd_trace_ring_bytes", s.traces.RingBytes())
	p("Summed working-set estimate of queued clustering jobs.", "gauge", "symclusterd_queue_bytes", s.queuedBytes.Load())
	p("Kernel checkpoints journaled to the WAL.", "counter", "symclusterd_checkpoints_total", jobs.CheckpointSaves())
	p("Interrupted jobs replayed as pending at startup.", "counter", "symclusterd_jobs_replayed_total", jobs.Replayed())
	p("Current size of the job WAL in bytes.", "gauge", "symclusterd_wal_bytes", jobs.LogBytes())
	p("Records appended to the job WAL.", "counter", "symclusterd_wal_appends_total", jobs.Appends())
	p("Job WAL compactions performed.", "counter", "symclusterd_wal_compactions_total", jobs.Compactions())

	io.WriteString(w, "# HELP symclusterd_jobs Async jobs by state.\n")
	io.WriteString(w, "# TYPE symclusterd_jobs gauge\n")
	counts := jobs.Counts()
	for _, st := range []jobstore.State{jobstore.Pending, jobstore.Running, jobstore.Done, jobstore.Failed, jobstore.Canceled} {
		io.WriteString(w, "symclusterd_jobs{state=\""+string(st)+"\"} "+strconv.Itoa(counts[st])+"\n")
	}
}

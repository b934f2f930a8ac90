package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// runTraced sets up once, then runs two consecutive stretches of half
// the time on the same servers: untraced (the base of
// bench.trace_overhead_pct), then traced. The per-layer numbers come
// from the traced stretch — read off the responses' Stats, the
// harness's own spans and GET /metrics deltas — and from the direct
// probes, which run once the servers are down.
func runTraced(cfg runConfig, def workloadDef, rec *record) error {
	in, err := setUp(def, cfg.sz, cfg.seed, cfg.outDir)
	if err != nil {
		return err
	}
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	plain := in.measure(0, half, false)
	before, err := in.fleet.scrapeAll()
	if err != nil {
		in.tearDown()
		return err
	}
	traced := in.measure(len(plain.ops), half, true)
	after, err := in.fleet.scrapeAll()
	if err != nil {
		in.tearDown()
		return err
	}
	v := in.gate(append(append([]opResult(nil), plain.ops...), traced.ops...))
	in.tearDown()

	// delta sums, over the traced stretch, the growth of every series
	// whose name starts with prefix and, when labels are given, carries
	// one of them.
	delta := func(prefix string, labels ...string) float64 {
		var d float64
		for series, val := range after {
			if !strings.HasPrefix(series, prefix) {
				continue
			}
			carries := len(labels) == 0
			for _, l := range labels {
				carries = carries || strings.Contains(series, l)
			}
			if carries {
				d += val - before[series]
			}
		}
		return d
	}
	m := layerMetrics(traced)
	if plain.okCount > 0 && traced.okCount > 0 {
		base, _ := steadyPerOp(plain, def, cfg.sz.pauseTicks)
		with, _ := steadyPerOp(traced, def, cfg.sz.pauseTicks)
		m["bench.trace_overhead_pct"] = 100 * (with - base) / base
		m["server.gc_pause_ms_per_op"] = 1e3 * delta("symclusterd_runtime_gc_pause_seconds_total") / float64(traced.okCount)
	}
	m["bench.host_ref_ms"] = median(traced.ticks)
	hits, misses := delta("symclusterd_cache_hits_total"), delta("symclusterd_cache_misses_total")
	if hits+misses > 0 {
		m["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	requests := delta("symclusterd_requests_total{")
	refusals := delta("symclusterd_requests_total{", `code="413"`, `code="429"`, `code="503"`, `code="504"`)
	if requests > 0 {
		m["server.refused_ratio"] = refusals / requests
	}
	m["cluster.proxy_retries"] = delta("symclusterd_proxy_retries_total")
	// The ring says which ops are proxied; the servers must have counted
	// at least one forwarded request for each of them.
	var proxiedOps float64
	for i := range traced.ops {
		if traced.ops[i].proxied && traced.ops[i].err == nil {
			proxiedOps++
		}
	}
	forwarded := delta("symclusterd_proxy_requests_total{")
	if forwarded < proxiedOps {
		v.failf("ring owner says %.0f ops were proxied, the servers forwarded %.0f requests", proxiedOps, forwarded)
	}
	rec.finish(v, plain, traced)

	if err := writeTrace(filepath.Join(cfg.outDir, "trace.jsonl"), traced.traces); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := runProbes(def, cfg.sz, cfg.seed, cfg.outDir, m); err != nil {
		return err
	}
	rec.setMetrics(perLayer, m)
	return nil
}

// layerMetrics reads the per-layer numbers a traced stretch carries in
// its responses and spans.
func layerMetrics(st *stretch) map[string]float64 {
	registerMS := make(map[int]float64) // op index → register step
	for _, t := range st.traces {
		for _, s := range t.spans {
			if s.Name == "register" {
				registerMS[s.Op] = s.EndMS - s.StartMS
			}
		}
	}
	var lat, wait, overhead, symWall, cluWall, cluCPU, direct, proxied []float64
	var proxiedOps int
	for i := range st.ops {
		r := &st.ops[i]
		if r.err != nil {
			continue
		}
		ms := millis(r.latency)
		lat = append(lat, ms)
		if r.proxied {
			proxiedOps++
		}
		if !r.req.Async && r.req.Algorithm == "graclus" {
			if r.proxied {
				proxied = append(proxied, ms)
			} else {
				direct = append(direct, ms)
			}
		}
		if r.res.Stats == nil {
			continue
		}
		// Overhead is what the clustering step cost the caller beyond
		// what the job itself accounts for: HTTP, JSON, routing, the
		// proxy hop, polling.
		spent := r.res.Stats.QueueWaitMillis
		for _, stage := range r.res.Stats.Stages {
			spent += stage.WallMillis
		}
		wait = append(wait, r.res.Stats.QueueWaitMillis)
		overhead = append(overhead, ms-registerMS[r.index]-spent)
		symWall = append(symWall, r.res.Stats.Stages["symmetrize"].WallMillis)
		cluWall = append(cluWall, r.res.Stats.Stages["cluster"].WallMillis)
		cluCPU = append(cluCPU, r.res.Stats.Stages["cluster"].CPUMillis)
	}
	m := map[string]float64{
		"server.queue_wait_p50_ms":       median(wait),
		"server.queue_wait_p99_ms":       percentile(wait, 0.99),
		"server.overhead_p50_ms":         median(overhead),
		"server.stage_symmetrize_p50_ms": median(symWall),
		"server.stage_cluster_p50_ms":    median(cluWall),
		"server.stage_cluster_cpu_ms":    mean(cluCPU),
		"server.register_ms":             median(durations(st.traces, "register")),
		"server.submit_ms":               median(durations(st.traces, "submit")),
		"client.latency_p50_ms":          median(lat),
		"client.latency_p99_ms":          percentile(lat, 0.99),
		"trace.attributed_share":         attributedShare(st.traces),
	}
	if len(lat) > 0 {
		m["cluster.proxied_share"] = float64(proxiedOps) / float64(len(lat))
	}
	if len(direct) > 0 && len(proxied) > 0 {
		m["cluster.proxy_hop_ms"] = median(proxied) - median(direct)
	}
	return m
}

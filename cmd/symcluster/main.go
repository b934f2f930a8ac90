// Command symcluster symmetrizes and clusters a directed graph given
// as an edge-list file, printing the cluster assignment (one cluster id
// per node, in node order) to stdout.
//
// Usage:
//
//	symcluster -in graph.edges [-method dd|bib|aat|rw] [-algo mcl|metis|graclus|spectral|bestwcut|zhou]
//	           [-k N] [-alpha A] [-beta B] [-threshold T] [-inflation R]
//	           [-truth truth.txt] [-seed N] [-stats] [-json]
//	           [-out-of-core] [-spill-dir DIR]
//	           [-server URL] [-retries N] [-retry-max-wait D] [-timeout D]
//
// Method and algorithm names come from the pipeline registry: any
// canonical name or registered alias ("degree-discounted",
// "random-walk", "mlr-mcl", …) is accepted, case-insensitively.
// Algorithms that cluster the directed graph directly (bestwcut, zhou)
// bypass the symmetrize stage, exactly as symclusterd does.
//
// With -truth, the micro-averaged best-match F-score is reported on
// stderr. With -stats, symmetrized-graph statistics are reported on
// stderr. With -json, stdout carries a single JSON document in the
// same schema as symclusterd's POST /v1/cluster response instead of
// one cluster id per line.
//
// With -server, the run executes on a symclusterd instance instead of
// in-process: the edge list is registered and a synchronous clustering
// request submitted. A transport error or a 429/503 shed answer is
// tried again, -retries tries in all, after the server's Retry-After
// or a jittered backoff, either capped at -retry-max-wait; this is the
// only retry loop in the module, the daemon's hops never retry. Flags
// that need the graph locally (-stats, -metisout, -out-of-core, -truth,
// -trace-log) are rejected.
//
// Observability: -json output embeds the run's span tree
// (trace.spans), -trace-log appends the same tree as one JSON line to
// a file, and -cpuprofile/-memprofile write pprof profiles of the run
// (see README.md "Observability").
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"symcluster"
	"symcluster/internal/cluster"
	"symcluster/internal/graph"
	"symcluster/internal/obs"
	"symcluster/internal/pipeline"
	"symcluster/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the CLI body, factored out of main so tests can drive it
// in-process (e.g. the CLI/daemon parity test).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input edge-list file (required)")
	method := fs.String("method", "dd",
		"symmetrization: "+strings.Join(pipeline.MethodNames(), ", ")+" (aliases accepted)")
	algo := fs.String("algo", "mcl",
		"clustering algorithm: "+strings.Join(pipeline.AlgorithmNames(), ", ")+" (aliases accepted)")
	metisOut := fs.String("metisout", "", "also write the symmetrized graph in METIS format to this file")
	k := fs.Int("k", 0, "target cluster count (required for every algorithm except mcl)")
	alpha := fs.Float64("alpha", 0.5, "out-degree discount exponent α (dd)")
	beta := fs.Float64("beta", 0.5, "in-degree discount exponent β (dd)")
	threshold := fs.Float64("threshold", 0, "prune threshold (dd/bib)")
	inflation := fs.Float64("inflation", 0, "MLR-MCL inflation (overrides -k)")
	truthPath := fs.String("truth", "", "ground-truth file for F-score evaluation")
	seed := fs.Int64("seed", 1, "random seed")
	stats := fs.Bool("stats", false, "print symmetrized-graph statistics to stderr")
	jsonOut := fs.Bool("json", false, "emit the symclusterd POST /v1/cluster response schema on stdout")
	outOfCore := fs.Bool("out-of-core", false, "symmetrize out-of-core: large operands live in memory-mapped files under -spill-dir (bit-identical results, bounded resident memory)")
	spillDir := fs.String("spill-dir", "", "scratch directory for -out-of-core intermediates and spill runs; empty uses the OS temp dir")
	serverURL := fs.String("server", "", "run the clustering on this symclusterd instance (http://host:port) instead of locally")
	timeout := fs.Duration("timeout", 0, "overall run deadline; with -server the remaining budget is stamped on every request so the daemon drops work this run has stopped waiting for, and it is the only client-side bound on an attempt (0: the daemon's own -timeout bounds it)")
	retries := fs.Int("retries", 4, "with -server: total attempts when the server sheds with 429/503")
	retryMaxWait := fs.Duration("retry-max-wait", 15*time.Second, "with -server: cap on backoff (and honored Retry-After) between attempts")
	logLevel := fs.String("log-level", "warn", "minimum log level for structured logs: debug, info, warn, error")
	traceLog := fs.String("trace-log", "", "append the run's JSON span tree to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The CLI logs human-readable text; the daemon uses the same
	// substrate with a JSON handler.
	slog.SetDefault(obs.NewLogger(stderr, "text", obs.ParseLevel(*logLevel)))

	if *in == "" {
		fmt.Fprintln(stderr, "symcluster: -in FILE is required")
		fs.Usage()
		return 2
	}

	// The request, in the daemon's own wire form: -server mode ships it,
	// a local run resolves it through the same pipeline.Resolve the
	// daemon uses.
	req := server.ClusterRequest{
		Method:    *method,
		Algorithm: *algo,
		K:         *k,
		Alpha:     alpha,
		Beta:      beta,
		Threshold: *threshold,
		Inflation: *inflation,
		Seed:      *seed,
	}

	// One context for everything the run computes or waits for: the
	// deadline holds for a -server round trip and for the side outputs
	// as much as for the two stages.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" {
		// Server mode ships the graph and the request to a symclusterd
		// instance; everything that needs the graph in this process is
		// incompatible with it.
		for flagName, set := range map[string]bool{
			"-stats":       *stats,
			"-metisout":    *metisOut != "",
			"-out-of-core": *outOfCore,
			"-truth":       *truthPath != "",
			"-trace-log":   *traceLog != "",
		} {
			if set {
				fmt.Fprintf(stderr, "symcluster: %s runs locally and cannot be combined with -server\n", flagName)
				return 2
			}
		}
		return runServer(ctx, stdout, stderr, *serverURL, *in, req, *retries, *retryMaxWait, *jsonOut)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "symcluster:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "symcluster:", err)
			}
			f.Close()
		}()
	}

	g, err := symcluster.ReadEdgeListFile(*in)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "symcluster: read %d nodes, %d edges (%.1f%% symmetric)\n",
		g.N(), g.M(), 100*g.SymmetricLinkFraction())

	if *outOfCore {
		// Like the deadline, the routing holds off the main path too.
		ctx = symcluster.WithOutOfCore(ctx, symcluster.OutOfCoreConfig{ScratchDir: *spillDir})
	}

	run, err := pipeline.Resolve(req.Spec(), g.N())
	if err != nil {
		fmt.Fprintf(stderr, "symcluster: %v\n", err)
		return 2
	}

	// The run is always traced: its span tree is its only record, the
	// stage timings below included. -json embeds it, -trace-log appends
	// it as one JSON line.
	tr := obs.NewTrace()
	runCtx, root := tr.StartRoot(ctx, "run",
		obs.A("input", *in), obs.A("method", *method), obs.A("algorithm", *algo))
	res, u, err := run.Execute(runCtx, g, nil)
	root.EndErr(err)
	tree := tr.Tree()
	if *traceLog != "" {
		f, ferr := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fail(stderr, ferr)
		}
		obs.NewTraceSink(f, 1).Export(tree)
		if ferr := f.Close(); ferr != nil {
			return fail(stderr, ferr)
		}
	}
	if err != nil {
		return fail(stderr, err)
	}
	if sym := tree.Child("symmetrize"); sym != nil {
		fmt.Fprintf(stderr, "symcluster: symmetrized (%s) to %d undirected edges in %.2fs\n",
			run.Sym.Method, u.M(), sym.DurationMillis/1000)
	} else {
		fmt.Fprintf(stderr, "symcluster: %s clusters the directed graph; symmetrize stage skipped\n",
			run.Cl.Display)
	}
	side := u
	if u == nil && (*stats || *metisOut != "") {
		// The side outputs describe the symmetrized graph, which the
		// directed substrates never build; produce it just for them.
		if side, err = symmetrizeOnly(ctx, g, req.Spec()); err != nil {
			return fail(stderr, err)
		}
	}
	if err := writeSideOutputs(stderr, side, *stats, *metisOut); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "symcluster: clustered (%s) into %d clusters in %.2fs\n",
		run.Cl.Display, res.K, tree.Child("cluster").DurationMillis/1000)

	var avgF *float64
	if *truthPath != "" {
		f, err := os.Open(*truthPath)
		if err != nil {
			return fail(stderr, err)
		}
		truth, err := symcluster.ReadGroundTruth(f)
		f.Close()
		if err != nil {
			return fail(stderr, err)
		}
		rep, err := symcluster.Evaluate(res.Assign, truth)
		if err != nil {
			return fail(stderr, err)
		}
		avgF = &rep.AvgF
		fmt.Fprintf(stderr, "symcluster: Avg F-score = %.2f%%\n", 100*rep.AvgF)
	}

	w := bufio.NewWriter(stdout)
	if *jsonOut {
		// The same schema symclusterd serves from POST /v1/cluster, from
		// the same constructor, so scripted pipelines can swap between
		// CLI and service — the per-run resource accounting included,
		// read off the run's span tree as the daemon reads it.
		resp := server.NewClusterResponse("", res, u, tree)
		resp.AvgF = avgF
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			return fail(stderr, err)
		}
	} else {
		for _, c := range res.Assign {
			fmt.Fprintln(w, c)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// runServer executes the clustering on a symclusterd instance: the
// edge list is registered via POST /v1/graphs, then a synchronous
// POST /v1/cluster runs it. Both calls go through post, the module's
// one retry loop, so a daemon shedding load (503 with Retry-After from
// a full queue or an unreachable owner; a 429 from anything in front of
// it) is retried instead of failing the run; the daemon's own hops are
// one request each. With -timeout, the context deadline makes the
// client stamp the remaining budget on every request
// (X-Symclusterd-Deadline-Ms), so the daemon fast-fails work this
// caller would never wait for, and post refuses retry sleeps that
// would outlive the run.
func runServer(ctx context.Context, stdout, stderr io.Writer, baseURL, in string, req server.ClusterRequest, retries int, maxWait time.Duration, jsonOut bool) int {
	baseURL = strings.TrimRight(baseURL, "/")
	// A zero flag means the default, not no try or no wait.
	if retries < 1 {
		retries = 4
	}
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return fail(stderr, err)
	}
	send := func(url, contentType string, body []byte) ([]byte, int, error) {
		resp, err := post(ctx, stderr, url, http.Header{"Content-Type": {contentType}}, body, retries, maxWait)
		if err != nil {
			return nil, 0, err
		}
		return readAnswer(url, resp)
	}
	body, status, err := send(baseURL+"/v1/graphs", "text/plain", data)
	if err != nil {
		return fail(stderr, err)
	}
	var ginfo server.GraphInfo
	if err := json.Unmarshal(body, &ginfo); err != nil {
		return fail(stderr, fmt.Errorf("decoding graph registration (status %d): %w", status, err))
	}
	fmt.Fprintf(stderr, "symcluster: registered %s (%d nodes, %d edges) on %s\n",
		ginfo.ID, ginfo.Nodes, ginfo.Edges, baseURL)

	req.GraphID = ginfo.ID
	reqBody, err := json.Marshal(req)
	if err != nil {
		return fail(stderr, err)
	}
	body, _, err = send(baseURL+"/v1/cluster", "application/json", reqBody)
	if err != nil {
		return fail(stderr, err)
	}

	w := bufio.NewWriter(stdout)
	if jsonOut {
		// Relay the daemon's response verbatim: it is already the schema
		// -json promises.
		w.Write(body)
		if len(body) == 0 || body[len(body)-1] != '\n' {
			w.WriteByte('\n')
		}
	} else {
		var resp server.ClusterResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fail(stderr, fmt.Errorf("decoding cluster response: %w", err))
		}
		fmt.Fprintf(stderr, "symcluster: clustered (%s) into %d clusters in %.2fs\n",
			resp.Algorithm, resp.K, resp.ClusterMillis/1000)
		for _, c := range resp.Assign {
			fmt.Fprintln(w, c)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// post sends body to url, the whole body on every try, up to attempts
// tries while the answer is a transport error or a shed status (429 or
// 503). Between tries it drains the shed body, logs why on stderr and
// waits the server's Retry-After, else the backoff — either capped at
// maxWait. It never sleeps past ctx's deadline: it relays the shed
// answer, or returns the error, at once instead. The final 429/503 is
// returned like any other answer.
func post(ctx context.Context, stderr io.Writer, url string, hdr http.Header, body []byte, attempts int, maxWait time.Duration) (*http.Response, error) {
	cli := cluster.NewClient()
	for n := 1; ; n++ {
		resp, err := cli.Do(ctx, http.MethodPost, url, hdr, bytes.NewReader(body), int64(len(body)))
		wait := jitter(backoff(n, maxWait))
		var reason string
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, err
			}
			if n >= attempts {
				return nil, fmt.Errorf("failed after %d attempts: %w", n, err)
			}
			if !fits(ctx, wait) {
				return nil, fmt.Errorf("retry would outlive the deadline: %w", err)
			}
			reason = "attempt error: " + err.Error()
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if ra, ok := retryAfter(resp.Header); ok {
				wait = min(ra, maxWait)
			}
			if n >= attempts || !fits(ctx, wait) {
				return resp, nil
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			reason = "status " + strconv.Itoa(resp.StatusCode)
		default:
			return resp, nil
		}
		fmt.Fprintf(stderr, "symcluster: retrying: %s\n", reason)
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// backoff is the wait after try n when the server named none:
// 100 ms·2ⁿ⁻¹, capped at maxWait.
func backoff(n int, maxWait time.Duration) time.Duration {
	d := 100 * time.Millisecond
	for i := 1; i < n && d < maxWait; i++ {
		d *= 2
	}
	return min(d, maxWait)
}

// jitter spreads a wait over [d/2, d], so callers shed together do not
// come back together.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + rand.N(d/2+1)
}

// fits reports whether sleeping wait still ends before ctx's deadline.
func fits(ctx context.Context, wait time.Duration) bool {
	dl, ok := ctx.Deadline()
	return !ok || time.Until(dl) > wait
}

// retryAfter parses a Retry-After header, delta-seconds or HTTP-date (a
// date already past is zero). ok is false when it is absent or
// malformed.
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if secs, err := strconv.Atoi(v); err == nil {
		return time.Duration(secs) * time.Second, secs >= 0
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(time.Until(t), 0), true
	}
	return 0, false
}

// readAnswer reads a response from url and closes it, turning any
// non-2xx answer (including a 429/503 that survived every retry) into
// an error carrying the daemon's message.
func readAnswer(url string, resp *http.Response) ([]byte, int, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		var eresp server.ErrorResponse
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
			msg = eresp.Error
		}
		return nil, resp.StatusCode, fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, msg)
	}
	return raw, resp.StatusCode, nil
}

// symmetrizeOnly produces the symmetrized graph outside the two-stage
// run — for the side outputs of a substrate that never builds it —
// with the options the request resolves to.
func symmetrizeOnly(ctx context.Context, g *symcluster.DirectedGraph, spec pipeline.Request) (*symcluster.UndirectedGraph, error) {
	m, err := symcluster.ParseMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	opt := spec.SymOptions()
	if err := symcluster.ValidateSymmetrizeOptions(m, opt); err != nil {
		return nil, err
	}
	return symcluster.SymmetrizeCtx(ctx, g, m, opt)
}

// writeSideOutputs handles -stats and -metisout for a symmetrized
// graph. A nil graph (directed bypass without those flags) is a no-op.
func writeSideOutputs(stderr io.Writer, u *symcluster.UndirectedGraph, stats bool, metisOut string) error {
	if u == nil {
		return nil
	}
	if stats {
		deg := u.Degrees()
		fmt.Fprintf(stderr, "symcluster: degrees max=%d median=%d mean=%.1f singletons=%d\n",
			graph.MaxDegree(deg), graph.MedianDegree(deg), graph.MeanDegree(deg), u.Singletons())
	}
	if metisOut != "" {
		f, err := os.Create(metisOut)
		if err != nil {
			return err
		}
		if err := symcluster.WriteMetisGraph(f, u, 1000); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "symcluster: wrote METIS graph to %s\n", metisOut)
	}
	return nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "symcluster:", err)
	return 1
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/obs"
	"symcluster/internal/server"
)

// node is one in-process symclusterd behind a real loopback listener.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

// fleet is the servers of one set-up plus the one client every caller
// shares, as a load generator process would.
type fleet struct {
	nodes  []*node
	client *http.Client
}

// bootFleet starts n nodes (a static two-node cluster when n > 1, every
// listener bound before any server starts so the peer list is complete
// up front). Scratch the servers need goes under spillDir.
func bootFleet(n, clients int, spillDir string) (*fleet, error) {
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	listeners := make([]net.Listener, n)
	peers := make([]*cluster.Peer, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		peers[i] = &cluster.Peer{Name: peerNames[i], URL: "http://" + l.Addr().String(), Weight: 1}
	}
	f := &fleet{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}}
	for i, l := range listeners {
		cfg := server.Config{Workers: 2, SpillDir: spillDir, Logger: logger}
		if n > 1 {
			cfg.Cluster = &server.ClusterConfig{Self: peerNames[i], Peers: peers}
		}
		s, err := server.New(cfg)
		if err != nil {
			for _, unserved := range listeners[i:] {
				unserved.Close()
			}
			f.shutdown()
			return nil, err
		}
		nd := &node{srv: s, http: &http.Server{Handler: s.Handler()}, url: peers[i].URL, done: make(chan struct{})}
		go func() {
			defer close(nd.done)
			_ = nd.http.Serve(l) // returns ErrServerClosed on shutdown
		}()
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

// shutdown stops every node and waits until each has ended.
func (f *fleet) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range f.nodes {
		_ = nd.http.Shutdown(ctx)
		<-nd.done
		_ = nd.srv.Drain(ctx)
		_ = nd.srv.Close()
	}
	f.client.CloseIdleConnections()
}

// entry is the URL every request goes to.
func (f *fleet) entry() string { return f.nodes[0].url }

// do sends one request and decodes a JSON reply into out when the
// status is want; any other outcome is an error.
func (f *fleet) do(req *http.Request, want int, out any) error {
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d, want %d: %s", req.Method, req.URL.Path, resp.StatusCode, want, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s %s: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// register uploads an edge list (head followed by tail, sent as one
// body without copying either) to base and returns what the server
// registered.
func (f *fleet) register(base string, head []byte, tail string) (server.GraphInfo, error) {
	var info server.GraphInfo
	body := func() io.Reader { return io.MultiReader(bytes.NewReader(head), strings.NewReader(tail)) }
	req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs", body())
	if err != nil {
		return info, err
	}
	req.ContentLength = int64(len(head) + len(tail))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body()), nil }
	err = f.do(req, http.StatusCreated, &info)
	return info, err
}

// clusterResult is the part of server.ClusterResponse the benchmark
// reads; the embedded span tree is skipped, not decoded.
type clusterResult struct {
	Nodes  int                   `json:"nodes"`
	K      int                   `json:"k"`
	Assign []int                 `json:"assign"`
	Stats  *obs.JobStatsSnapshot `json:"stats"`
}

func (f *fleet) postCluster(base string, creq *server.ClusterRequest, want int, out any) error {
	body, err := json.Marshal(creq)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/cluster", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return f.do(req, want, out)
}

// clusterSync runs one synchronous clustering request.
func (f *fleet) clusterSync(base string, creq *server.ClusterRequest) (*clusterResult, error) {
	var res clusterResult
	if err := f.postCluster(base, creq, http.StatusOK, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// jobStatus is the part of server.JobInfo the benchmark reads.
type jobStatus struct {
	State  string         `json:"state"`
	Result *clusterResult `json:"result"`
	Error  string         `json:"error"`
}

func (f *fleet) pollJob(base, id string) (*jobStatus, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var st jobStatus
	if err := f.do(req, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// scrape reads GET /metrics of one node into series name (labels
// included, as printed) → value.
func (f *fleet) scrape(base string) (map[string]float64, error) {
	resp, err := f.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, sc.Err()
}

// scrapeAll sums every node's series; a series is cumulative per node,
// so the sum is cumulative for the fleet. The Go runtime series are
// process-wide and identical on every node of an in-process fleet, so
// those are taken from the entry node alone.
func (f *fleet) scrapeAll() (map[string]float64, error) {
	total := make(map[string]float64)
	for i, nd := range f.nodes {
		m, err := f.scrape(nd.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if i > 0 && strings.HasPrefix(k, "symclusterd_runtime_") {
				continue
			}
			total[k] += v
		}
	}
	return total, nil
}

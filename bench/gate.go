package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"strings"

	symcluster "symcluster"
	"symcluster/internal/graph"
)

// goldenJSON pins, for seed 1, the digest of each workload's leading
// assignments on the architecture it was recorded on. A change that
// means to alter results replaces the digests with the ones the failing
// run prints.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	GOARCH  string                       `json:"goarch"`
	Digests map[string]map[string]string `json:"digests"` // scale → workload → digest
}

// verdict is what the gate found.
type verdict struct {
	avgF   float64
	digest string
	errs   []error
}

func (v *verdict) failf(format string, args ...any) {
	if len(v.errs) < 20 { // enough to diagnose, not a page per op
		v.errs = append(v.errs, fmt.Errorf(format, args...))
	}
}

func assignDigest(assign []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range assign {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// inputOf returns the directed graph an op clustered, as the server
// parsed it.
func (in *instance) inputOf(r *opResult) (*graph.Directed, error) {
	if in.def.name != symCold {
		return in.graphs[r.graph].ds.Graph, nil
	}
	b := in.bases[r.base]
	return graph.ReadEdgeList(io.MultiReader(bytes.NewReader(b.text), strings.NewReader(b.repeatLine(r.variant))))
}

// nodesOf is the node count of the graph an op clustered.
func (in *instance) nodesOf(r *opResult) int {
	if in.def.name == symCold {
		return in.bases[r.base].nodes()
	}
	return in.graphs[r.graph].ds.Graph.N()
}

// replay runs an op's request through the library, with no service in
// between.
func (in *instance) replay(r *opResult) ([]int, error) {
	g, err := in.inputOf(r)
	if err != nil {
		return nil, err
	}
	method, err := symcluster.ParseMethod(r.req.Method)
	if err != nil {
		return nil, err
	}
	algo, err := symcluster.ParseAlgorithm(r.req.Algorithm)
	if err != nil {
		return nil, err
	}
	symOpt := symcluster.DefaultSymmetrizeOptions()
	symOpt.Threshold = r.req.Threshold
	res, err := symcluster.ClusterDirectedCtx(context.Background(), g, method, symOpt, algo,
		symcluster.ClusterOptions{TargetClusters: r.req.K, Inflation: r.req.Inflation, Seed: r.req.Seed})
	if err != nil {
		return nil, err
	}
	return res.Assign, nil
}

// gate checks every output of the measured ops. It runs outside the
// timed window, with the servers still up (one check re-issues requests
// to the owning node).
func (in *instance) gate(ops []opResult) *verdict {
	v := &verdict{}
	byKey := make(map[string]uint64)
	fByKey := make(map[string]float64)
	firstOfClass := make(map[string]bool)
	// The digest covers the leading ops of the schedule, fewer when the
	// scale caps a stretch below that.
	leadOps := in.def.leading
	if in.sz.maxOps > 0 && in.sz.maxOps < leadOps {
		leadOps = in.sz.maxOps
	}
	lead := fnv.New64a()
	var fSum float64
	var fCount, ok, led int
	for i := range ops {
		r := &ops[i]
		if r.err != nil {
			continue // counted in failed; a failed op has no output to check
		}
		ok++
		g := r.res
		// The assignment covers the graph, with ids in [0, k).
		want := in.nodesOf(r)
		if len(g.Assign) != want || g.Nodes != want {
			v.failf("op %d: assignment covers %d of %d nodes (response says %d)", r.index, len(g.Assign), want, g.Nodes)
			continue
		}
		if g.K < 1 || (r.req.K > 0 && g.K > r.req.K) {
			v.failf("op %d: k=%d for a request of k=%d", r.index, g.K, r.req.K)
		}
		for node, c := range g.Assign {
			if c < 0 || c >= g.K {
				v.failf("op %d: node %d in cluster %d, outside [0,%d)", r.index, node, c, g.K)
				break
			}
		}
		// The same request returns the same assignment, whatever the
		// transport.
		d := assignDigest(g.Assign)
		if prev, seen := byKey[r.key]; !seen {
			byKey[r.key] = d
		} else if prev != d {
			v.failf("op %d (%s): assignment differs from an earlier op with the same request", r.index, r.class)
		}
		leading := r.index < leadOps
		if leading {
			led++
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], d)
			lead.Write(buf[:])
		}
		// The first op of each class equals a library replay; on R-MAT
		// every leading op is replayed, because the replay is also the
		// truth avg_f is scored against.
		var replayed []int
		if !firstOfClass[r.class] || (leading && in.def.name == symCold) {
			firstOfClass[r.class] = true
			var err error
			if replayed, err = in.replay(r); err != nil {
				v.failf("op %d: library replay: %v", r.index, err)
			} else if !slices.Equal(replayed, g.Assign) {
				v.failf("op %d (%s): service and library disagree", r.index, r.class)
			}
			if r.proxied {
				in.checkDirect(r, v)
			}
		}
		// avg_f: against generator truth where there is one, else
		// against the replay.
		if in.def.name == symCold {
			if replayed != nil {
				cats := make([][]int, len(replayed))
				for n, c := range replayed {
					cats[n] = []int{c}
				}
				f, err := fScore(g.Assign, cats)
				if err != nil {
					v.failf("op %d: scoring: %v", r.index, err)
				}
				fSum += f
				fCount++
			}
			continue
		}
		f, seen := fByKey[r.key]
		if !seen {
			rep, err := symcluster.Evaluate(g.Assign, in.graphs[r.graph].ds.Truth)
			if err != nil {
				v.failf("op %d: scoring: %v", r.index, err)
				continue
			}
			f = rep.AvgF
			fByKey[r.key] = f
		}
		fSum += f
		fCount++
	}
	if ok == 0 {
		v.failf("no op succeeded")
	}
	if fCount > 0 {
		v.avgF = fSum / float64(fCount)
	}
	v.digest = fmt.Sprintf("%016x", lead.Sum64())
	if in.sz.name == "full" && v.avgF < in.def.fFloor {
		v.failf("avg_f %.4f under the floor %.2f", v.avgF, in.def.fFloor)
	}
	if led == leadOps { // a run cut short has no comparable digest
		in.checkGolden(v)
	}
	return v
}

func fScore(assign []int, categories [][]int) (float64, error) {
	truth, err := symcluster.NewGroundTruth(categories)
	if err != nil {
		return 0, err
	}
	rep, err := symcluster.Evaluate(assign, truth)
	if err != nil {
		return 0, err
	}
	return rep.AvgF, nil
}

// checkDirect re-issues a proxied op's request straight to the node
// that owns the graph: proxied and direct must agree.
func (in *instance) checkDirect(r *opResult, v *verdict) {
	req := r.req
	req.Async = false
	direct, err := in.fleet.clusterSync(in.fleet.nodes[1].url, &req)
	if err != nil {
		v.failf("op %d: direct re-issue: %v", r.index, err)
	} else if !slices.Equal(direct.Assign, r.res.Assign) {
		v.failf("op %d (%s): proxied and direct disagree", r.index, r.class)
	}
}

func (in *instance) checkGolden(v *verdict) {
	var gold goldenFile
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		v.failf("golden.json: %v", err)
		return
	}
	want := gold.Digests[in.sz.name][in.def.name]
	if in.seed != 1 || gold.GOARCH != runtime.GOARCH || want == "" {
		return
	}
	if v.digest != want {
		v.failf("leading assignments digest %s, golden.json has %s for seed 1 at %s scale", v.digest, want, in.sz.name)
	}
}

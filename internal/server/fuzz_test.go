package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	symcluster "symcluster"
	"symcluster/internal/pipeline"
)

// FuzzClusterRequest holds the JSON request surface — handleCluster's
// decode, then prepareRun's pipeline.Resolve against a registered graph
// — to one contract: no input panics, and every input ends either in an
// *apiError with a 4xx status or in a run whose options pass the
// registry's Validate (and whose k fits the graph). Seeds are the bodies
// the server tests send plus one per registered method × algorithm.
func FuzzClusterRequest(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	info := s.RegisterGraph(symcluster.Figure1().Graph)
	for _, body := range []string{
		clusterBody,
		`{"graph_id":"{graph}","method":"dd","algorithm":"mcl","seed":1,"async":true}`,
		`{"graph_id":"{graph}","method":"dd","algorithm":"graclus","threshold":0.05,"k":2,"seed":1}`,
		`{"graph_id":"{graph}","algorithm":"zhou","k":2,"seed":1}`,
		`{"graph_id":"{graph}","method":"nope","algorithm":"zhou","k":2,"seed":1}`,
		`{"graph_id":"{graph}","method":"degree-discounted","algorithm":"spectral-ncut","k":3,"seed":1}`,
		`{"graph_id":"{graph}","method":"dd","algorithm":"metis","k":100}`,
		`{"graph_id":"{graph}","method":"dd","algorithm":"mcl","alpha":3}`,
		`{"graph_id":"{graph}","method":"dd","algorithm":"mcl","inflation":0.5}`,
		`{"graph_id":"x","method":"dd","algorithm":"mcl","bogus":1}`,
		`{"graph_id":"g-nope","method":"dd","algorithm":"mcl"}`,
		`{"method":"dd","algorithm":"mcl"}`,
		`{`,
	} {
		f.Add([]byte(strings.ReplaceAll(body, "{graph}", info.ID)))
	}
	for _, m := range pipeline.MethodNames() {
		for _, a := range pipeline.AlgorithmNames() {
			body, _ := json.Marshal(ClusterRequest{GraphID: info.ID, Method: m, Algorithm: a, K: 2, Seed: 1})
			f.Add(body)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeClusterRequest(bytes.NewReader(body))
		var prep *preparedRun
		if err == nil {
			prep, err = s.prepareRun(req)
		}
		if err != nil {
			var ae *apiError
			if code := httpStatus(err); !errors.As(err, &ae) || code < 400 || code > 499 {
				t.Fatalf("%q: refused with %d (%v), want an apiError with a 4xx status", body, code, err)
			}
			return
		}
		run := prep.run
		if err := run.Cl.Validate(run.ClOpt); err != nil {
			t.Fatalf("%q: resolved clusterer options fail Validate: %v", body, err)
		}
		if run.Sym == nil && !run.Cl.AcceptsDirected {
			t.Fatalf("%q: %s resolved without a symmetrizer", body, run.Cl.Name)
		}
		if run.Sym != nil {
			if err := run.Sym.Validate(run.SymOpt); err != nil {
				t.Fatalf("%q: resolved symmetrizer options fail Validate: %v", body, err)
			}
		}
		if run.ClOpt.TargetClusters > prep.rg.info.Nodes {
			t.Fatalf("%q: k=%d over %d nodes resolved", body, run.ClOpt.TargetClusters, prep.rg.info.Nodes)
		}
	})
}

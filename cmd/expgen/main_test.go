package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"symcluster/internal/experiments"
	"symcluster/internal/graph"
)

// TestWritesTheExperimentsDataset: the files expgen writes are the
// graph and ground truth the experiments run on, so `symcluster -truth`
// over them reproduces an EXPERIMENTS.md row.
func TestWritesTheExperimentsDataset(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "wiki")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "wiki", "-scale", "small", "-seed", "1", "-out", prefix}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	d, err := experiments.Load(experiments.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	var edges, truth bytes.Buffer
	if err := graph.WriteEdgeList(&edges, d.Wiki.Graph); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteGroundTruth(&truth, d.Wiki.Truth.Categories); err != nil {
		t.Fatal(err)
	}
	for ext, want := range map[string][]byte{".edges": edges.Bytes(), ".truth": truth.Bytes()} {
		got, err := os.ReadFile(prefix + ext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from experiments.Load(Small, 1).Wiki's %d", ext, len(got), len(want))
		}
	}
}

// The pre-Load names are gone; an unknown name or scale is a usage
// error that writes nothing.
func TestUnknownDatasetOrScaleExitsTwo(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-dataset", "citation"},
		{"-dataset", "kronecker"},
		{"-dataset", "wiki", "-scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", filepath.Join(dir, "x")), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a refused run wrote %d files", len(entries))
	}
}

package csr

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"symcluster/internal/graph"
)

// genEdgeList builds a deterministic edge-list text with integer
// weights (exactly representable, so duplicate-summing order cannot
// change the result), duplicate edges, comments and blank lines.
func genEdgeList(nodes, edges int, seed uint64) string {
	var sb strings.Builder
	sb.WriteString("# generated test graph\n\n")
	x := seed
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for e := 0; e < edges; e++ {
		u, v := next(nodes), next(nodes)
		w := next(9) + 1
		fmt.Fprintf(&sb, "%d %d %d\n", u, v, w)
		if next(5) == 0 { // duplicate to exercise summing
			fmt.Fprintf(&sb, "%d %d %d\n", u, v, next(3)+1)
		}
	}
	return sb.String()
}

// ingestText runs text through an Ingester, splitting it into chunks
// of the given size, and returns the finalized file's view.
func ingestText(t *testing.T, text string, chunk int, budget int64) (*Mapped, *IngestInfo) {
	t.Helper()
	dir := t.TempDir()
	in, err := NewIngester(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(text)
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		if err := in.Append(data[:n]); err != nil {
			in.Abort()
			t.Fatalf("Append: %v", err)
		}
		data = data[n:]
	}
	dst := filepath.Join(dir, "g.csr")
	info, err := in.Finalize(context.Background(), dst)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	mp, err := Open(context.Background(), dst)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { mp.Close() })
	return mp, info
}

func TestIngestMatchesReadEdgeList(t *testing.T) {
	// Enough records to overflow the sorter's 4096-triplet floor several
	// times, so the tiny budget below forces multiple spill runs.
	text := genEdgeList(200, 12000, 42)
	want, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes that split lines mid-token, and a spill budget so
	// small the sorter writes many runs.
	for _, chunk := range []int{1 << 20, 4096, 37, 1} {
		t.Run(fmt.Sprintf("chunk-%d", chunk), func(t *testing.T) {
			if chunk == 1 && testing.Short() {
				t.Skip("byte-at-a-time is slow")
			}
			mp, info := ingestText(t, text, chunk, 1)
			if info.SpillRuns == 0 {
				t.Fatal("tiny budget produced no spill runs; merge path untested")
			}
			sameMatrix(t, want.Adj, mp.View())
			g, err := graph.NewDirected(mp.View(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantFP := g.Fingerprint(), want.Fingerprint(); got != wantFP {
				t.Fatalf("fingerprint %x, want %x", got, wantFP)
			}
		})
	}
}

func TestIngestInMemoryPath(t *testing.T) {
	// Large budget: no spills, pure in-memory sort + merge with the tail.
	text := genEdgeList(80, 400, 7)
	want, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	mp, info := ingestText(t, text, 1<<20, 64<<20)
	if info.SpillRuns != 0 {
		t.Fatalf("unexpected spills: %d", info.SpillRuns)
	}
	sameMatrix(t, want.Adj, mp.View())
}

func TestIngestTrailingLineWithoutNewline(t *testing.T) {
	text := "0 1 2\n1 2 3" // no trailing newline
	mp, info := ingestText(t, text, 1<<20, 64<<20)
	if info.Edges != 2 || info.NNZ != 2 {
		t.Fatalf("edges=%d nnz=%d, want 2/2", info.Edges, info.NNZ)
	}
	if got := mp.View().At(1, 2); got != 3 {
		t.Fatalf("At(1,2) = %v, want 3", got)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"negative-id", "0 -1\n"},
		{"non-numeric", "a b\n"},
		{"bad-weight", "0 1 nan\n"},
		{"too-many-fields", "0 1 2 3\n"},
		{"sparse-ids", "0 999999999\n"},
		{"empty", "# only comments\n\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in, err := NewIngester(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Abort()
			aerr := in.Append([]byte(tc.text))
			if aerr != nil {
				return // rejected at parse time: fine
			}
			if _, err := in.Finalize(context.Background(), filepath.Join(dir, "g.csr")); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

// TestIngestRejectsIDBeyondInt32: the sorter's triplets carry int32 ids,
// so an id of 2³¹ used to wrap negative on its way in — after 2.2 M
// ordinary records the density check lets it pass. Append refuses it,
// naming the line, as ReadEdgeList does.
func TestIngestRejectsIDBeyondInt32(t *testing.T) {
	in, err := NewIngester(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Abort()
	if err := in.Append([]byte(strings.Repeat("1 2\n", 2_200_000))); err != nil {
		t.Fatal(err)
	}
	err = in.Append([]byte("5 2147483648\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2200001: destination id 2147483648 above the largest supported") {
		t.Fatalf("Append: err = %v, want the id refused at line 2200001", err)
	}
}

func TestIngestZeroWeightCancellation(t *testing.T) {
	// Edges whose weights sum to exactly zero (explicit zero weights are
	// legal) are dropped, matching the in-memory builder.
	text := "0 1 0\n0 1 0\n1 0 1\n"
	want, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := ingestText(t, text, 1<<20, 64<<20)
	sameMatrix(t, want.Adj, mp.View())
	if mp.View().NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1 (cancelled edge kept)", mp.View().NNZ())
	}
}

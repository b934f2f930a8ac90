package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"symcluster/internal/matrix"
)

func writeMetis(t *testing.T, d [][]float64, weightScale float64) string {
	t.Helper()
	g, err := NewUndirected(matrix.FromDense(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetisGraph(&buf, g, weightScale); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestMetisWriteUnweighted(t *testing.T) {
	// A path 0–1–2: two edges, 1-indexed neighbours, no fmt field.
	got := writeMetis(t, [][]float64{{0, 1, 0}, {1, 0, 1}, {0, 1, 0}}, 1)
	want := "% symcluster symmetrized graph\n3 2\n2\n1 3\n2\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestMetisWriteWeightScaling(t *testing.T) {
	// Real-valued weights survive via scaling; one that rounds to zero is
	// written as 1 so the edge survives.
	got := writeMetis(t, [][]float64{{0, 0.123, 0.0001}, {0.123, 0, 0}, {0.0001, 0, 0}}, 1000)
	want := "% symcluster symmetrized graph\n3 2 001\n2 123 3 1\n1 123\n1 1\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func randomUndirected(rng *rand.Rand, n int, avgDeg float64, weighted bool) *Undirected {
	b := matrix.NewBuilder(n, n)
	seen := map[[2]int]bool{} // a repeated pair would sum to weight 2
	for e := 0; e < int(float64(n)*avgDeg/2); e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] || seen[[2]int{v, u}] {
			continue
		}
		seen[[2]int{u, v}] = true
		w := 1.0
		if weighted {
			w = float64(1 + rng.Intn(9))
		}
		b.Add(u, v, w)
		b.Add(v, u, w)
	}
	g, err := NewUndirected(b.Build(), nil)
	if err != nil {
		panic(err)
	}
	return g
}

// checkMetisText parses the writer's output by the format's own rules
// and compares it with g.Adj entry by entry: the header's vertex and
// edge counts and fmt field, then each row's 1-indexed neighbours in
// order, with their exact integer weights when weighted.
func checkMetisText(t *testing.T, text string, g *Undirected, weighted bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "%") {
		t.Fatalf("first line %q is not a comment", lines[0])
	}
	wantHeader := fmt.Sprintf("%d %d", g.N(), g.Adj.NNZ()/2)
	if weighted {
		wantHeader += " 001"
	}
	if lines[1] != wantHeader {
		t.Fatalf("header %q, want %q", lines[1], wantHeader)
	}
	rows := lines[2:]
	if len(rows) != g.N() {
		t.Fatalf("%d vertex lines, want %d", len(rows), g.N())
	}
	for i, line := range rows {
		fields := strings.Fields(line)
		cols, vals := g.Adj.Row(i)
		stride := 1
		if weighted {
			stride = 2
		}
		if len(fields) != stride*len(cols) {
			t.Fatalf("row %d: %q has %d fields for %d neighbours", i, line, len(fields), len(cols))
		}
		for k, c := range cols {
			if nb, err := strconv.Atoi(fields[stride*k]); err != nil || nb != int(c)+1 {
				t.Fatalf("row %d entry %d: neighbour %q, want %d", i, k, fields[stride*k], c+1)
			}
			if weighted {
				if w, err := strconv.Atoi(fields[2*k+1]); err != nil || float64(w) != vals[k] {
					t.Fatalf("row %d entry %d: weight %q, want %v", i, k, fields[2*k+1], vals[k])
				}
			}
		}
	}
}

func TestMetisWriteRandomUnweighted(t *testing.T) {
	g := randomUndirected(rand.New(rand.NewSource(1)), 40, 5, false)
	var buf bytes.Buffer
	if err := WriteMetisGraph(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	checkMetisText(t, buf.String(), g, false)
}

func TestMetisWriteRandomWeighted(t *testing.T) {
	g := randomUndirected(rand.New(rand.NewSource(2)), 30, 4, true)
	var buf bytes.Buffer
	if err := WriteMetisGraph(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	checkMetisText(t, buf.String(), g, true)
}

func TestMetisWriteSkipsSelfLoops(t *testing.T) {
	// The self-loop is not representable; its weight 5 still switches on
	// fmt 001, which is harmless.
	got := writeMetis(t, [][]float64{{5, 1}, {1, 0}}, 1)
	want := "% symcluster symmetrized graph\n2 1 001\n2 1\n1 1\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"symcluster/internal/csr"
	"symcluster/internal/graph"
	"symcluster/internal/matrix"
)

// oocTestGraph builds a deterministic directed graph with hubs,
// duplicate-free integer-ish weights and some reciprocal edges.
func oocTestGraph(t *testing.T, n, perNode int, seed uint64) *graph.Directed {
	t.Helper()
	b := matrix.NewBuilder(n, n)
	x := seed
	next := func(m int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(m))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < perNode; k++ {
			j := next(n)
			if j == i {
				continue
			}
			b.Add(i, j, float64(next(5)+1))
		}
		// Hub: everyone occasionally points at node 0.
		if next(3) == 0 {
			b.Add(i, 0, 1)
		}
	}
	g, err := graph.NewDirected(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func bitIdentical(t *testing.T, want, got *matrix.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols || want.NNZ() != got.NNZ() {
		t.Fatalf("shape/nnz mismatch: got %dx%d/%d, want %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d] differs", i)
		}
	}
	for k := range want.ColIdx {
		if want.ColIdx[k] != got.ColIdx[k] {
			t.Fatalf("ColIdx[%d] differs", k)
		}
		if math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("Val[%d]: %v vs %v — not bit-identical", k, want.Val[k], got.Val[k])
		}
	}
}

// TestOutOfCoreBitIdentity is the core contract: for every method and
// option mix, the out-of-core path produces byte-identical output to
// the in-core path.
func TestOutOfCoreBitIdentity(t *testing.T) {
	g := oocTestGraph(t, 300, 6, 99)
	for _, tc := range []struct {
		name   string
		method Method
		opt    Options
	}{
		{"aat", AAT, Defaults()},
		{"rw", RandomWalk, Defaults()},
		{"bib", Bibliometric, Defaults()},
		{"bib-selfloops-thr", Bibliometric, func() Options {
			o := Defaults()
			o.AddSelfLoops = true
			o.Threshold = 0.5
			return o
		}()},
		{"bib-keep-diag", Bibliometric, func() Options {
			o := Defaults()
			o.DropDiagonal = false
			return o
		}()},
		{"dd", DegreeDiscounted, Defaults()},
		{"dd-thr", DegreeDiscounted, func() Options {
			o := Defaults()
			o.Threshold = 0.01
			return o
		}()},
		{"dd-log", DegreeDiscounted, func() Options {
			o := Defaults()
			o.AlphaKind, o.BetaKind = LogDiscount, LogDiscount
			return o
		}()},
		{"dd-selfloops", DegreeDiscounted, func() Options {
			o := Defaults()
			o.AddSelfLoops = true
			return o
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := SymmetrizeCtx(context.Background(), g, tc.method, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			ctx := WithOutOfCore(context.Background(), OutOfCoreConfig{ScratchDir: t.TempDir()})
			got, err := SymmetrizeCtx(ctx, g, tc.method, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			bitIdentical(t, want.Adj, got.Adj)
		})
	}
}

// TestOutOfCoreFromMappedFile runs the path a server job takes: the
// graph already lives in a binary CSR file and InputPath points at it,
// so no in-memory copy is ever written to scratch.
func TestOutOfCoreFromMappedFile(t *testing.T) {
	g := oocTestGraph(t, 200, 5, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	if err := csr.WriteMatrix(context.Background(), path, g.Adj); err != nil {
		t.Fatal(err)
	}
	mp, err := csr.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mg, err := graph.NewDirected(mp.View(), nil)
	if err != nil {
		t.Fatal(err)
	}

	opt := Defaults()
	opt.Threshold = 0.01
	want, err := SymmetrizeCtx(context.Background(), g, DegreeDiscounted, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithOutOfCore(context.Background(), OutOfCoreConfig{InputPath: path, ScratchDir: dir})
	got, err := SymmetrizeCtx(ctx, mg, DegreeDiscounted, opt)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, want.Adj, got.Adj)
}

// TestOutOfCoreResidentBudget: a budget too small for the product
// matrices fails with ErrResidentBudget rather than OOMing — and so does
// one that admits the degree vectors but not the per-entry vectors
// (scaled values, entry offsets) the product holds beside them.
func TestOutOfCoreResidentBudget(t *testing.T) {
	g := oocTestGraph(t, 300, 6, 13)
	vectors := int64(16*g.N() + 12*g.M())
	for _, budget := range []int64{1024, vectors - 1} {
		ctx := WithOutOfCore(context.Background(), OutOfCoreConfig{
			ScratchDir:       t.TempDir(),
			MaxResidentBytes: budget,
		})
		_, err := SymmetrizeCtx(ctx, g, DegreeDiscounted, Defaults())
		if !errors.Is(err, ErrResidentBudget) {
			t.Fatalf("budget %d: err = %v, want ErrResidentBudget", budget, err)
		}
		if want := fmt.Sprintf("%d bytes of in-memory intermediates", vectors); !strings.Contains(err.Error(), want) {
			t.Fatalf("budget %d: err = %v, want it tripped by the %s", budget, err, want)
		}
	}
}

// TestFusedAllocatesLess is the coarse "no materialized intermediates"
// check: both lowerings of the fused execution layer — in-core and
// out-of-core — must allocate meaningfully less heap than the
// materialized pre-fusion dataflow, which clones the input four times
// (ScaleRows and ScaleCols per factor) plus a transpose per product.
func TestFusedAllocatesLess(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is noisy under -short")
	}
	// A dense input with an aggressive prune threshold: the (pruned)
	// products are small, so the reference path's cost is dominated by
	// its input-sized clones — exactly the allocations the fused kernels
	// eliminate (in-core) or move to disk (out-of-core).
	g := oocTestGraph(t, 10000, 60, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	if err := csr.WriteMatrix(context.Background(), path, g.Adj); err != nil {
		t.Fatal(err)
	}
	opt := Defaults()
	opt.Threshold = 1.0

	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	reference := measure(func() {
		if _, err := ReferenceSymmetrize(context.Background(), g.Adj, DegreeDiscounted, opt); err != nil {
			t.Fatal(err)
		}
	})
	inCore := measure(func() {
		if _, err := SymmetrizeCtx(context.Background(), g, DegreeDiscounted, opt); err != nil {
			t.Fatal(err)
		}
	})
	mp, err := csr.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mg, err := graph.NewDirected(mp.View(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithOutOfCore(context.Background(), OutOfCoreConfig{
		InputPath: path, ScratchDir: dir, SpillMemBytes: 4 << 20,
	})
	outOfCore := measure(func() {
		if _, err := SymmetrizeCtx(ctx, mg, DegreeDiscounted, opt); err != nil {
			t.Fatal(err)
		}
	})

	// The reference materialises four input-sized scale clones plus a
	// transpose per product; the fused in-core path keeps one shared
	// transpose and, like the out-of-core path, one 8-byte-an-entry
	// vector of pre-scaled values per term. A 1.5x gap keeps the check
	// robust to allocator noise while still failing if someone
	// reintroduces an input-sized matrix copy into either lowering.
	if float64(inCore)*1.5 > float64(reference) {
		t.Fatalf("fused in-core allocated %d bytes vs reference %d — intermediates rematerialised", inCore, reference)
	}
	if float64(outOfCore)*1.5 > float64(reference) {
		t.Fatalf("out-of-core allocated %d bytes vs reference %d — not meaningfully bounded", outOfCore, reference)
	}
	t.Logf("reference allocated %.1f MiB, fused in-core %.1f MiB, out-of-core %.1f MiB",
		float64(reference)/(1<<20), float64(inCore)/(1<<20), float64(outOfCore)/(1<<20))
}

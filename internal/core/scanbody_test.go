package core

import (
	"context"
	"testing"
	_ "unsafe" // for go:linkname

	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// vectorScan is internal/matrix's switch between the dense scan's two
// bodies: unexported there because only tests may turn it, and reached
// by name here so this package's oracle tests run under both.
//
//go:linkname vectorScan symcluster/internal/matrix.vectorScan
var vectorScan bool

// eachScanBody runs f once for every dense-scan body this process has —
// the vector one where matrix's init chose it, and always the Go loop —
// as matrix's own eachScanBody does.
func eachScanBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	chosen := vectorScan
	t.Cleanup(func() { vectorScan = chosen })
	bodies := []bool{false}
	if chosen {
		bodies = []bool{true, false}
	}
	for _, vector := range bodies {
		vectorScan = vector
		t.Run("scan="+matrix.ScanBody(), f)
	}
}

// TestSymmetrizeSpanNamesScanBody: a trace says which body scanned the
// dense rows — the "core.symmetrize" span carries scan = avx2 | go, and
// with the vector body switched off it reads go (which also shows the
// linknamed switch above is matrix's own variable, not a copy).
func TestSymmetrizeSpanNamesScanBody(t *testing.T) {
	g := oocTestGraph(t, 300, 6, 23)
	eachScanBody(t, func(t *testing.T) {
		trace := obs.NewTrace()
		ctx, root := trace.StartRoot(context.Background(), "test")
		_, err := SymmetrizeCtx(ctx, g, DegreeDiscounted, Defaults())
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		tree := trace.Tree()
		if len(tree.Children) != 1 || tree.Children[0].Name != "core.symmetrize" {
			t.Fatalf("span tree %+v, want one core.symmetrize child", tree)
		}
		if got := tree.Children[0].Attrs["scan"]; got != matrix.ScanBody() {
			t.Fatalf("core.symmetrize scan = %v, want %q", got, matrix.ScanBody())
		}
		if !vectorScan && matrix.ScanBody() != "go" {
			t.Fatalf("ScanBody() = %q with the vector body off", matrix.ScanBody())
		}
	})
}

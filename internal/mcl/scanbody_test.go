package mcl

import (
	"testing"
	_ "unsafe" // for go:linkname

	"symcluster/internal/matrix"
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

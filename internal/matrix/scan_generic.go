//go:build !amd64 || purego

package matrix

// No vector body on this target: vectorScan stays false, and scanSpan
// never reaches the stub.

func haveAVX2() bool { return false }

func scanSpanAVX2([]float64, int, uint64, []int32) (m, nonzero int) {
	panic("matrix: scanSpanAVX2 on a target without it")
}

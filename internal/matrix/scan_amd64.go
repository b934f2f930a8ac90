//go:build !purego

package matrix

// The dense scan's vector body and what decides whether it runs.

// scanSpanAVX2 (scan_amd64.s) is scanSpanGo over the whole groups of
// four sums in span, four a step. It checks no bound: touched must hold
// len(span) columns.
//
//go:noescape
func scanSpanAVX2(span []float64, lo int, cutBits uint64, touched []int32) (m, nonzero int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveAVX2 asks the CPU for what scanSpanAVX2 executes — AVX2, and BMI1
// for TZCNT and BLSR — and the OS for the ymm state it has to preserve
// across a context switch (CPUID leaves 1 and 7, XCR0 bits 1 and 2).
func haveAVX2() bool {
	const (
		osxsave, avx = 1 << 27, 1 << 28 // leaf 1, ECX
		bmi1, avx2   = 1 << 3, 1 << 5   // leaf 7, EBX
		sseAndYMM    = 1<<1 | 1<<2      // XCR0
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&sseAndYMM != sseAndYMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(bmi1|avx2) == bmi1|avx2
}

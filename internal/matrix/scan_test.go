package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eachScanBody runs f once for every dense-scan body this process has:
// the vector one where init chose it, and always the Go loop. It is how
// an oracle test holds both bodies to the same bits in one `go test`.
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
		t.Run("scan="+ScanBody(), f)
	}
}

// scanCuts are the cuts the scan is held to: the lowest a flush passes
// (every nonzero sum is a candidate), a prune threshold, a τ/2-like
// value inside the random sums' range, and one nothing finite reaches.
var scanCuts = []float64{math.SmallestNonzeroFloat64, 0.03, 0.4, math.MaxFloat64}

// scanValue draws a sum from the classes a scan must not confuse: both
// zeros, a subnormal, both infinities, a NaN, a negative, and ordinary
// magnitudes on either side of every cut in scanCuts.
func scanValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(1 + uint64(rng.Intn(1000))) // subnormal
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return math.NaN()
	case 5:
		return -rng.Float64()
	case 6:
		return 0.03 // a sum exactly at a cut is a candidate
	default:
		return rng.Float64() * rng.Float64()
	}
}

// requireScanMatchesGo holds scanSpan — the vector body and its tail —
// to scanSpanGo on one span: the same m, the same nonzero count, the
// same columns in touched[:m].
func requireScanMatchesGo(t testing.TB, span []float64, lo int, cut float64) {
	t.Helper()
	cutBits := math.Float64bits(cut) << 1
	want, got := make([]int32, len(span)), make([]int32, len(span))
	wm, wnz := scanSpanGo(span, lo, cutBits, want)
	gm, gnz := scanSpan(span, lo, cutBits, got)
	got = got[:min(gm, len(got))] // a wrong m must fail, not panic
	if gm != wm || gnz != wnz || !slices.Equal(got, want[:wm]) {
		t.Fatalf("span of %d at lo=%d, cut %g: scanSpan m=%d nonzero=%d touched=%v\nscanSpanGo m=%d nonzero=%d touched=%v",
			len(span), lo, cut, gm, gnz, got, wm, wnz, want[:wm])
	}
}

// TestScanSpanMatchesGo: the Go loop is the spec. On seeded random spans
// — every short length (each remainder mod four, with and without a
// whole group), long ones at the sizes products have, starting anywhere
// in a backing array so the loads are unaligned — the body scanSpan
// dispatches to agrees with scanSpanGo at every cut.
func TestScanSpanMatchesGo(t *testing.T) {
	eachScanBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		lengths := make([]int, 0, 120)
		for n := 0; n <= 70; n++ {
			lengths = append(lengths, n)
		}
		for i := 0; i < 40; i++ {
			lengths = append(lengths, 500+rng.Intn(8501))
		}
		for _, n := range lengths {
			lo := rng.Intn(9000)
			backing := make([]float64, lo%7+n)
			span := backing[lo%7:]
			sparse := rng.Intn(2) == 0 // as a pruned row is: mostly zeros
			for j := range span {
				if !sparse || rng.Intn(50) == 0 {
					span[j] = scanValue(rng)
				}
			}
			for _, cut := range scanCuts {
				requireScanMatchesGo(t, span, lo, cut)
			}
		}
	})
}

// FuzzScanSpan feeds the scan raw float64 bit patterns, a starting
// column and a cut, seeded with what TestScanSpanMatchesGo draws.
func FuzzScanSpan(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 3, 4, 9, 64, 541} {
		raw := make([]byte, 8*n)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(scanValue(rng)))
		}
		for _, cut := range scanCuts {
			f.Add(raw, uint16(rng.Intn(9000)), cut)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, lo uint16, cut float64) {
		span := make([]float64, len(raw)/8)
		for j := range span {
			span[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		requireScanMatchesGo(t, span, int(lo), cut)
	})
}

// BenchmarkCollectDense times the dense scan alone, in each body, at the
// shapes the benchmark's products give it: a cold symmetrization row
// (span 4 400 and 8 192, 3 survivors of the cut) and a flow row (span
// 540, 50 and 200 candidates above it).
func BenchmarkCollectDense(b *testing.B) {
	const cut = 0.03
	for _, tc := range []struct{ span, candidates int }{{4400, 3}, {8192, 3}, {540, 50}, {540, 200}} {
		rng := rand.New(rand.NewSource(27))
		spa := newAccumulator(tc.span)
		spa.hi, spa.dense = tc.span, true
		for j, c := range rng.Perm(tc.span) {
			switch {
			case j < tc.candidates:
				spa.acc[c] = cut + rng.Float64()
			case j < tc.span/3: // what pruning kills
				spa.acc[c] = cut * rng.Float64() / 2
			}
		}
		for _, body := range []struct {
			name   string
			vector bool
		}{{"avx2", true}, {"go", false}} {
			b.Run(fmt.Sprintf("span=%d/candidates=%d/%s", tc.span, tc.candidates, body.name), func(b *testing.B) {
				if body.vector && !vectorScan {
					b.Skip("no vector body in this process")
				}
				chosen := vectorScan
				vectorScan = body.vector
				defer func() { vectorScan = chosen }()
				for i := 0; i < b.N; i++ {
					if m, _ := spa.collect(cut); m != tc.candidates {
						b.Fatalf("%d candidates, want %d", m, tc.candidates)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.span), "ns/elem")
			})
		}
	}
}

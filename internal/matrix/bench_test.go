package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGraph builds a power-law-ish random sparse matrix reused across
// the kernel benchmarks.
func benchGraph(n, avgDeg int) *CSR {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(n, n)
	b.Reserve(n * avgDeg)
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(2*avgDeg)
		for d := 0; d < deg; d++ {
			// Skew targets toward low ids for a heavy-tailed in-degree.
			t := int(float64(n) * rng.Float64() * rng.Float64())
			if t != i {
				b.Add(i, t, 1)
			}
		}
	}
	return b.Build()
}

func BenchmarkTranspose(b *testing.B) {
	m := benchGraph(20000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transpose()
	}
}

func BenchmarkSpGEMM(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulPruned(m, mt, 0)
	}
}

func BenchmarkSpGEMMPruned(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulPruned(m, mt, 2)
	}
}

func BenchmarkSpGEMMTopK(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulTopK(m, mt, 0, 30)
	}
}

func BenchmarkXXTScaledPruned(b *testing.B) {
	m := benchGraph(8192, 12)
	mt := m.Transpose()
	rs := randomScale(rand.New(rand.NewSource(3)), m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulXXT(m, mt, rs, nil, 0.5, 1)
	}
}

func BenchmarkBuilderBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 50000
	type trip struct {
		r, c int
		v    float64
	}
	trips := make([]trip, 8*n)
	for i := range trips {
		trips[i] = trip{rng.Intn(n), rng.Intn(n), 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(n, n)
		bu.Reserve(len(trips))
		for _, t := range trips {
			bu.Add(t.r, t.c, t.v)
		}
		bu.Build()
	}
}

func BenchmarkMulVec(b *testing.B) {
	m := benchGraph(50000, 10)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

// BenchmarkAccumulatorRow measures one output row — begin, the adds,
// flush — in each accumulator mode, at the flow-sized and the
// symmetrization-sized span and from a sixteenth of to four times the
// span in flops: the measurement behind denseSpanShare, which sits where
// the two modes cross under the Go scan (under the vector scan they
// cross near an eighth; DESIGN.md §15 says why the constant stayed). The
// adds arrive as 32-entry operand rows over random columns, as a flow's
// do.
func BenchmarkAccumulatorRow(b *testing.B) {
	for _, span := range []int{540, 8192} {
		for _, ratio := range []float64{0.0625, 0.125, 0.25, 0.5, 1, 4} {
			rng := rand.New(rand.NewSource(11))
			terms := make([][]int32, int(ratio*float64(span))/32)
			vals := make([]float64, 32)
			for k := range terms {
				terms[k] = make([]int32, 32)
				for t, c := range rng.Perm(span)[:32] {
					terms[k][t], vals[t] = int32(c), rng.Float64()
				}
			}
			for _, mode := range []struct {
				name  string
				force int8
			}{{"dense", 1}, {"marked", -1}} {
				b.Run(fmt.Sprintf("span=%d/flops=%vx/%s", span, ratio, mode.name), func(b *testing.B) {
					spa := newAccumulator(span, 1)
					spa.force = mode.force
					p := &product{cols: span, threshold: 0.5}
					var sink rowSink
					for i := 0; i < b.N; i++ {
						spa.begin(0, span, 0, 1)
						for _, cols := range terms {
							spa.axpy(0.5, cols, vals)
						}
						sink.cols, sink.vals = sink.cols[:0], sink.vals[:0]
						spa.flush(&sink, p, 0, spa.acc)
						spa.end()
					}
				})
			}
		}
	}
}

// BenchmarkSelectTopK measures the top-k selection on its own: the k-th
// largest of a contiguous vector of magnitudes, at the flow's shape
// (≈ 200 candidates for 30 places) and a hub row's.
func BenchmarkSelectTopK(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{200, 30}, {2000, 50}} {
		b.Run(fmt.Sprintf("%d-to-%d", tc.n, tc.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(12))
			src, keys := make([]float64, tc.n), make([]float64, tc.n)
			for j := range src {
				src[j] = rng.ExpFloat64()
			}
			for i := 0; i < b.N; i++ {
				copy(keys, src)
				kthLargest(keys, tc.k)
			}
		})
	}
}

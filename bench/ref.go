package main

import (
	"math/rand"
	"time"
)

// The host reference kernel. The reference host is a few cores of a
// shared machine, and for minutes at a time its neighbours slow
// memory-bound code by a fifth to a half: symmetrization, MLR-MCL and
// the serving path all alike, a cache-resident loop hardly at all. A
// raw time then says more about the neighbours than about the program.
// So every pause of the measured loop times a few ticks of this kernel
// — a frozen sparse product of the same character as the program's hot
// loops: indirect reads of a matrix that overflows L1, scattered adds
// into a dense accumulator — and each gated time is divided by how much
// slower than refNominalMS the ticks around it ran (stats.go). The
// kernel is part of the benchmark, not of the program: a change to the
// program cannot make it faster, so it cannot hide a regression or fake
// a gain.
//
// It allocates nothing per tick, so alloc_mb_per_op stays the program's
// own, and it is built from a fixed seed, so every run of every
// workload ticks the same work.
const (
	refRows   = 8192
	refDegree = 8 // mean entries per row
	refPasses = 2 // products per tick
	// refNominalMS is about one tick between two ops on the reference
	// host when its neighbours are quiet; it only fixes the scale the
	// gated times are reported at.
	refNominalMS = 10.0
)

type refKernel struct {
	ptr     []int32
	col     []int32
	val     []float64
	acc     []float64
	mark    []bool
	touched []int32
	sink    float64
}

// ref is the process's one reference kernel; it ticks only while no op
// is in flight.
var ref = newRefKernel()

// newRefKernel builds the fixed matrix: refRows rows of 1..2·refDegree
// entries whose columns crowd towards the low ids, as R-MAT's do.
func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(7))
	k := &refKernel{
		ptr:     make([]int32, refRows+1),
		acc:     make([]float64, refRows),
		mark:    make([]bool, refRows),
		touched: make([]int32, 0, refRows),
	}
	for i := 0; i < refRows; i++ {
		for d := 1 + rng.Intn(2*refDegree); d > 0; d-- {
			k.col = append(k.col, int32(refRows*rng.Float64()*rng.Float64()))
			k.val = append(k.val, rng.Float64())
		}
		k.ptr[i+1] = int32(len(k.col))
	}
	return k
}

// tick runs refPasses row-by-row products of the matrix with itself
// (Gustavson's, with a dense accumulator; the result is summed, not
// stored) and returns the milliseconds they took.
func (k *refKernel) tick() float64 {
	start := time.Now()
	for pass := 0; pass < refPasses; pass++ {
		for i := 0; i < refRows; i++ {
			for p := k.ptr[i]; p < k.ptr[i+1]; p++ {
				a, v := k.col[p], k.val[p]
				for q := k.ptr[a]; q < k.ptr[a+1]; q++ {
					c := k.col[q]
					if !k.mark[c] {
						k.mark[c] = true
						k.touched = append(k.touched, c)
					}
					k.acc[c] += v * k.val[q]
				}
			}
			for _, c := range k.touched {
				k.sink += k.acc[c]
				k.acc[c], k.mark[c] = 0, false
			}
			k.touched = k.touched[:0]
		}
	}
	return millis(time.Since(start))
}

// ticks appends n ticks to out.
func (k *refKernel) ticks(out []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		out = append(out, k.tick())
	}
	return out
}

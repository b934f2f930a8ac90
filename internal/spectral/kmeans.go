package spectral

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// KMeansOptions configures KMeansCtx.
type KMeansOptions struct {
	// MaxIter bounds the Lloyd iterations. Defaults to 100.
	MaxIter int
	// Restarts runs the whole algorithm multiple times and keeps the
	// lowest-inertia result. Defaults to 3.
	Restarts int
	// Seed drives the k-means++ seeding.
	Seed int64
}

func (o *KMeansOptions) fill() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
}

// KMeansCtx clusters the points (rows of x) into k clusters with
// k-means++ seeding and Lloyd iterations, returning the assignment and
// the final inertia (sum of squared distances to centroids). ctx is
// polled before each restart, so a cancelled context aborts the
// clustering within one full k-means run with ctx's error.
func KMeansCtx(ctx context.Context, x [][]float64, k int, opt KMeansOptions) ([]int, float64, error) {
	n := len(x)
	if k < 1 {
		return nil, 0, fmt.Errorf("spectral: kmeans k = %d, want >= 1", k)
	}
	if n == 0 {
		return []int{}, 0, nil
	}
	if k > n {
		return nil, 0, fmt.Errorf("spectral: kmeans k = %d exceeds %d points", k, n)
	}
	opt.fill()
	rng := rand.New(rand.NewSource(opt.Seed + 7))

	var bestAssign []int
	bestInertia := math.Inf(1)
	for r := 0; r < opt.Restarts; r++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		assign, inertia := kmeansOnce(x, k, opt.MaxIter, rng)
		if inertia < bestInertia {
			bestInertia = inertia
			bestAssign = assign
		}
	}
	return bestAssign, bestInertia, nil
}

func kmeansOnce(x [][]float64, k, maxIter int, rng *rand.Rand) ([]int, float64) {
	n, dim := len(x), len(x[0])
	centers := seedPlusPlus(x, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	for iter := 0; iter < maxIter; iter++ {
		changed := false
		counts := make([]int, k)
		for i, p := range x {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				d := sqDist(p, centers[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			counts[best]++
		}
		// Recompute centroids; reseed empty clusters with the point
		// farthest from its centroid.
		for c := range centers {
			for d := 0; d < dim; d++ {
				centers[c][d] = 0
			}
		}
		for i, p := range x {
			c := assign[i]
			for d := 0; d < dim; d++ {
				centers[c][d] += p[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i, p := range x {
					d := sqDist(p, centers[assign[i]])
					if d > farD {
						far, farD = i, d
					}
				}
				copy(centers[c], x[far])
				assign[far] = c
				changed = true
				continue
			}
			inv := 1 / float64(counts[c])
			for d := 0; d < dim; d++ {
				centers[c][d] *= inv
			}
		}
		if !changed {
			break
		}
	}

	var inertia float64
	for i, p := range x {
		inertia += sqDist(p, centers[assign[i]])
	}
	return assign, inertia
}

// seedPlusPlus picks k initial centers with the k-means++ rule: the
// first uniformly, each next with probability proportional to the
// squared distance from the nearest chosen center.
func seedPlusPlus(x [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(x)
	centers := make([][]float64, 0, k)
	first := append([]float64(nil), x[rng.Intn(n)]...)
	centers = append(centers, first)
	d2 := make([]float64, n)
	for i, p := range x {
		d2[i] = sqDist(p, first)
	}
	for len(centers) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all points coincide with centers
		} else {
			r := rng.Float64() * total
			for idx = 0; idx < n-1; idx++ {
				r -= d2[idx]
				if r <= 0 {
					break
				}
			}
		}
		c := append([]float64(nil), x[idx]...)
		centers = append(centers, c)
		for i, p := range x {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NormalizeRowsUnit scales each row of x to unit Euclidean norm in
// place (zero rows are left untouched). Spectral clustering pipelines
// apply this to the eigenvector embedding before k-means.
func NormalizeRowsUnit(x [][]float64) {
	for _, row := range x {
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s > 0 {
			inv := 1 / math.Sqrt(s)
			for d := range row {
				row[d] *= inv
			}
		}
	}
}

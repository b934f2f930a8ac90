package spectral

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// gaussBlobs makes k Gaussian blobs of sz points each around distant
// centers.
func gaussBlobs(rng *rand.Rand, k, sz, dim int, spread float64) ([][]float64, []int) {
	var x [][]float64
	var truth []int
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for d := range center {
			center[d] = float64(c*10) * float64(d%2*2-1)
		}
		center[0] = float64(c * 10)
		for p := 0; p < sz; p++ {
			pt := make([]float64, dim)
			for d := range pt {
				pt[d] = center[d] + rng.NormFloat64()*spread
			}
			x = append(x, pt)
			truth = append(truth, c)
		}
	}
	return x, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, truth := gaussBlobs(rng, 3, 40, 2, 0.5)
	assign, inertia, err := KMeansCtx(context.Background(), x, 3, KMeansOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inertia <= 0 {
		t.Fatalf("inertia = %v", inertia)
	}
	// Each true blob must be (almost) pure in one cluster.
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		for i, tc := range truth {
			if tc == c {
				counts[assign[i]]++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		if best < 38 {
			t.Fatalf("blob %d impure: %v", c, counts)
		}
	}
}

func TestKMeansK1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := gaussBlobs(rng, 2, 10, 2, 1)
	assign, _, err := KMeansCtx(context.Background(), x, 1, KMeansOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range assign {
		if a != 0 {
			t.Fatal("k=1 must assign all to 0")
		}
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	x := [][]float64{{0}, {5}, {10}}
	assign, inertia, err := KMeansCtx(context.Background(), x, 3, KMeansOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, a := range assign {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("k=n should give singleton clusters: %v", assign)
	}
	if inertia > 1e-12 {
		t.Fatalf("k=n inertia = %v", inertia)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	assign, _, err := KMeansCtx(context.Background(), x, 2, KMeansOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 4 {
		t.Fatalf("assign len %d", len(assign))
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, _, err := KMeansCtx(context.Background(), [][]float64{{1}}, 0, KMeansOptions{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, _, err := KMeansCtx(context.Background(), [][]float64{{1}}, 2, KMeansOptions{}); err == nil {
		t.Fatal("accepted k>n")
	}
	assign, inertia, err := KMeansCtx(context.Background(), nil, 3, KMeansOptions{})
	if err != nil || len(assign) != 0 || inertia != 0 {
		t.Fatal("empty input should return empty assignment")
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _ := gaussBlobs(rng, 3, 20, 3, 1)
	a, _, _ := KMeansCtx(context.Background(), x, 3, KMeansOptions{Seed: 7})
	b, _, _ := KMeansCtx(context.Background(), x, 3, KMeansOptions{Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestNormalizeRowsUnit(t *testing.T) {
	x := [][]float64{{3, 4}, {0, 0}, {-2, 0}}
	NormalizeRowsUnit(x)
	if math.Abs(x[0][0]-0.6) > 1e-12 || math.Abs(x[0][1]-0.8) > 1e-12 {
		t.Fatalf("row 0 = %v", x[0])
	}
	if x[1][0] != 0 || x[1][1] != 0 {
		t.Fatalf("zero row modified: %v", x[1])
	}
	if math.Abs(x[2][0]+1) > 1e-12 {
		t.Fatalf("row 2 = %v", x[2])
	}
}

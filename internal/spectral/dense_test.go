package spectral

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func randomSymmetric(rng *rand.Rand, n int, density float64) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if rng.Float64() < density {
				w := rng.NormFloat64()
				b.Add(i, j, w)
				if i != j {
					b.Add(j, i, w)
				}
			}
		}
	}
	return b.Build()
}

func TestDenseEigenDiagonal(t *testing.T) {
	m := matrix.Diagonal([]float64{4, -2, 7, 0})
	eig, err := DenseEigen(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 4, 0, -2}
	for i := range want {
		if math.Abs(eig.Values[i]-want[i]) > 1e-10 {
			t.Fatalf("values %v, want %v", eig.Values, want)
		}
	}
}

func TestDenseEigenResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(25)
		m := randomSymmetric(rng, n, 0.5)
		eig, err := DenseEigen(m, n)
		if err != nil {
			t.Fatal(err)
		}
		for t2 := 0; t2 < n; t2++ {
			v := eig.Vectors[t2]
			mv := m.MulVec(v)
			var res, vn float64
			for i := range v {
				d := mv[i] - eig.Values[t2]*v[i]
				res += d * d
				vn += v[i] * v[i]
			}
			if math.Abs(math.Sqrt(vn)-1) > 1e-8 {
				t.Fatalf("trial %d: eigenvector %d not unit (%v)", trial, t2, math.Sqrt(vn))
			}
			if math.Sqrt(res) > 1e-7 {
				t.Fatalf("trial %d: eigenpair %d residual %v", trial, t2, math.Sqrt(res))
			}
		}
		// Trace check.
		var trA, trD float64
		for i := 0; i < n; i++ {
			trA += m.At(i, i)
		}
		for _, v := range eig.Values {
			trD += v
		}
		if math.Abs(trA-trD) > 1e-8 {
			t.Fatalf("trial %d: trace %v vs %v", trial, trA, trD)
		}
	}
}

func TestDenseEigenMatchesLanczos(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	m := randomSymmetric(rng, n, 0.4)
	dense, err := DenseEigen(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	lanczos, err := TopEigenCtx(context.Background(), Operator(m), 3, LanczosOptions{Seed: 3, Steps: n})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(dense.Values[i]-lanczos.Values[i]) > 1e-7 {
			t.Fatalf("eigenvalue %d: dense %v vs lanczos %v", i, dense.Values[i], lanczos.Values[i])
		}
	}
}

func TestDenseEigenErrors(t *testing.T) {
	if _, err := DenseEigen(matrix.Zero(2, 3), 1); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := DenseEigen(matrix.Identity(3), 0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := DenseEigen(matrix.Identity(3), 4); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestDenseEigen1x1(t *testing.T) {
	m := matrix.Diagonal([]float64{5})
	eig, err := DenseEigen(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eig.Values[0] != 5 || eig.Vectors[0][0] != 1 {
		t.Fatalf("1x1 eigen: %+v", eig)
	}
}

func TestDenseEigen2x2(t *testing.T) {
	m := matrix.FromDense([][]float64{{2, 1}, {1, 2}})
	eig, err := DenseEigen(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-10 || math.Abs(eig.Values[1]-1) > 1e-10 {
		t.Fatalf("2x2 values %v", eig.Values)
	}
}

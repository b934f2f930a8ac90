package spectral

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func TestTql2Diagonal(t *testing.T) {
	d := []float64{3, 1, 2}
	e := []float64{0, 0, 0}
	z := identity(3)
	if err := tql2(d, e, z); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues %v, want %v", d, want)
		}
	}
}

func TestTql2Known2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3 with eigenvectors
	// (1,-1)/√2 and (1,1)/√2.
	d := []float64{2, 2}
	e := []float64{0, 1}
	z := identity(2)
	if err := tql2(d, e, z); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-1) > 1e-12 || math.Abs(d[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", d)
	}
	// Check eigenvector property for both columns.
	a := [][]float64{{2, 1}, {1, 2}}
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			var av float64
			for k := 0; k < 2; k++ {
				av += a[i][k] * z[k][j]
			}
			if math.Abs(av-d[j]*z[i][j]) > 1e-10 {
				t.Fatalf("A·v != λ·v for eigenpair %d", j)
			}
		}
	}
}

func TestTql2RandomTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		diag := make([]float64, n)
		sub := make([]float64, n) // sub[i] couples i-1 and i
		for i := range diag {
			diag[i] = rng.NormFloat64() * 3
			if i > 0 {
				sub[i] = rng.NormFloat64()
			}
		}
		d := append([]float64(nil), diag...)
		e := append([]float64(nil), sub...)
		z := identity(n)
		if err := tql2(d, e, z); err != nil {
			t.Fatal(err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if d[i] < d[i-1]-1e-12 {
				t.Fatalf("trial %d: eigenvalues not ascending: %v", trial, d)
			}
		}
		// Trace preserved.
		var trA, trD float64
		for i := 0; i < n; i++ {
			trA += diag[i]
			trD += d[i]
		}
		if math.Abs(trA-trD) > 1e-8 {
			t.Fatalf("trial %d: trace %v -> %v", trial, trA, trD)
		}
		// Residual ‖Tv − λv‖ small for every eigenpair.
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				tv := diag[i] * z[i][j]
				if i > 0 {
					tv += sub[i] * z[i-1][j]
				}
				if i < n-1 {
					tv += sub[i+1] * z[i+1][j]
				}
				if math.Abs(tv-d[j]*z[i][j]) > 1e-8 {
					t.Fatalf("trial %d: residual too large at (%d,%d)", trial, i, j)
				}
			}
		}
		// Eigenvectors orthonormal.
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				var s float64
				for i := 0; i < n; i++ {
					s += z[i][a] * z[i][b]
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(s-want) > 1e-8 {
					t.Fatalf("trial %d: z columns not orthonormal (%d,%d): %v", trial, a, b, s)
				}
			}
		}
	}
}

func identity(n int) [][]float64 {
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	return z
}

func TestTopEigenDiagonalOperator(t *testing.T) {
	m := matrix.Diagonal([]float64{5, -1, 3, 0.5, 2})
	eig, err := TopEigenCtx(context.Background(), Operator(m), 2, LanczosOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-5) > 1e-8 || math.Abs(eig.Values[1]-3) > 1e-8 {
		t.Fatalf("top eigenvalues %v, want [5 3]", eig.Values)
	}
	// Top eigenvector must be ±e_0.
	v := eig.Vectors[0]
	if math.Abs(math.Abs(v[0])-1) > 1e-6 {
		t.Fatalf("top eigenvector %v, want ±e0", v)
	}
}

func TestTopEigenSymmetricRandom(t *testing.T) {
	// Build a random symmetric matrix, compare Lanczos results against
	// residual norms.
	rng := rand.New(rand.NewSource(2))
	n := 40
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if rng.Float64() < 0.2 {
				w := rng.NormFloat64()
				b.Add(i, j, w)
				if i != j {
					b.Add(j, i, w)
				}
			}
		}
	}
	m := b.Build()
	k := 5
	eig, err := TopEigenCtx(context.Background(), Operator(m), k, LanczosOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < k; t2++ {
		v := eig.Vectors[t2]
		mv := m.MulVec(v)
		var res float64
		for i := range v {
			d := mv[i] - eig.Values[t2]*v[i]
			res += d * d
		}
		if math.Sqrt(res) > 1e-6 {
			t.Fatalf("eigenpair %d residual %v", t2, math.Sqrt(res))
		}
	}
	// Descending order.
	for t2 := 1; t2 < k; t2++ {
		if eig.Values[t2] > eig.Values[t2-1]+1e-10 {
			t.Fatalf("eigenvalues not descending: %v", eig.Values)
		}
	}
}

func TestTopEigenOrthogonalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				b.Add(i, j, 1)
				b.Add(j, i, 1)
			}
		}
	}
	eig, err := TopEigenCtx(context.Background(), Operator(b.Build()), 4, LanczosOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for c := a + 1; c < 4; c++ {
			if d := math.Abs(dot(eig.Vectors[a], eig.Vectors[c])); d > 1e-6 {
				t.Fatalf("eigenvectors %d,%d not orthogonal: %v", a, c, d)
			}
		}
	}
}

func TestTopEigenErrors(t *testing.T) {
	m := matrix.Identity(3)
	if _, err := TopEigenCtx(context.Background(), Operator(m), 0, LanczosOptions{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := TopEigenCtx(context.Background(), Operator(m), 4, LanczosOptions{}); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestTopEigenFuncOperator(t *testing.T) {
	// Operator x ↦ 2x has eigenvalue 2 everywhere.
	op := FuncOperator{N: 6, F: func(x []float64) []float64 {
		y := make([]float64, len(x))
		for i := range x {
			y[i] = 2 * x[i]
		}
		return y
	}}
	eig, err := TopEigenCtx(context.Background(), op, 1, LanczosOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-2) > 1e-9 {
		t.Fatalf("eigenvalue %v, want 2", eig.Values[0])
	}
}

func TestOperatorPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Operator(matrix.Zero(2, 3))
}

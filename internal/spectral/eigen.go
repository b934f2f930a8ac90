// Package spectral implements the eigenvector-based clustering
// substrate: a symmetric Lanczos eigensolver with full
// reorthogonalisation, an implicit-shift QL eigensolver for symmetric
// tridiagonal matrices, k-means++ for embedding rows, and the two
// directed spectral baselines the paper compares against — BestWCut
// (Meila & Pentney, SDM 2007) and the directed-Laplacian method of
// Zhou, Huang & Schölkopf (ICML 2005).
package spectral

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// tql2 computes all eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix with diagonal d and sub-diagonal e (e[0] unused),
// using the implicit-shift QL algorithm (EISPACK tql2). On return d
// holds the eigenvalues in ascending order and z the eigenvectors as
// columns (z[i][j] = component i of eigenvector j). z must come in as
// the identity (or an orthogonal basis to rotate).
func tql2(d, e []float64, z [][]float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find a small off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return fmt.Errorf("spectral: tql2 failed to converge at eigenvalue %d", l)
			}
			// Implicit shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			sgn := 1.0
			if g < 0 {
				sgn = -1
			}
			g = d[m] - d[l] + e[l]/(g+sgn*r)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					f := z[k][i+1]
					z[k][i+1] = s*z[k][i] + c*f
					z[k][i] = c*z[k][i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	// Sort eigenvalues (and vectors) ascending.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			for r := 0; r < n; r++ {
				z[r][i], z[r][k] = z[r][k], z[r][i]
			}
		}
	}
	return nil
}

// MatVec abstracts the operator a Lanczos iteration multiplies by, so
// composite operators (shifted, normalised, implicitly symmetrized)
// need not be materialised.
type MatVec interface {
	Dim() int
	Apply(x []float64) []float64
}

// csrOp wraps a symmetric CSR matrix as a MatVec.
type csrOp struct{ m *matrix.CSR }

func (o csrOp) Dim() int                    { return o.m.Rows }
func (o csrOp) Apply(x []float64) []float64 { return o.m.MulVec(x) }

// Operator wraps a symmetric CSR matrix as a MatVec operator.
func Operator(m *matrix.CSR) MatVec {
	if m.Rows != m.Cols {
		panic("spectral: operator matrix not square")
	}
	return csrOp{m}
}

// FuncOperator adapts a function to MatVec.
type FuncOperator struct {
	N int
	F func(x []float64) []float64
}

// Dim returns the operator dimension.
func (f FuncOperator) Dim() int { return f.N }

// Apply applies the operator.
func (f FuncOperator) Apply(x []float64) []float64 { return f.F(x) }

// Eigen holds the output of the Lanczos solver: Values in descending
// order and the corresponding unit eigenvectors as Vectors[j] (each of
// length Dim).
type Eigen struct {
	Values  []float64
	Vectors [][]float64
}

// LanczosOptions configures TopEigenCtx.
type LanczosOptions struct {
	// Seed drives the random start vector.
	Seed int64
}

// TopEigenCtx computes the k algebraically largest eigenpairs of the
// symmetric operator op using Lanczos with full reorthogonalisation.
// The operator must be symmetric; no check is possible through the
// MatVec interface, so callers are responsible. ctx is polled before
// each Lanczos step, so a cancelled context aborts the factorisation
// within one operator application with ctx's error. Each call opens a
// "spectral.lanczos" span that records the final basis size.
func TopEigenCtx(ctx context.Context, op MatVec, k int, opt LanczosOptions) (eig *Eigen, err error) {
	n := op.Dim()
	if k < 1 {
		return nil, fmt.Errorf("spectral: k = %d, want >= 1", k)
	}
	if k > n {
		return nil, fmt.Errorf("spectral: k = %d exceeds dimension %d", k, n)
	}
	// The Krylov subspace dimension: min(dim, max(2k+20, 40)).
	steps := min(max(2*k+20, 40), n)
	rng := rand.New(rand.NewSource(opt.Seed + 1))

	// Lanczos vectors, kept for full reorthogonalisation and Ritz
	// vector assembly.
	v := make([][]float64, 0, steps+1)
	var sp *obs.Span
	ctx, sp = obs.StartSpan(ctx, "spectral.lanczos",
		obs.A("dim", n), obs.A("k", k), obs.A("max_steps", steps))
	defer func() {
		sp.SetAttr("basis_size", len(v))
		sp.EndErr(err)
	}()
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[i] links v[i] and v[i+1]

	q := randomUnit(rng, n)
	v = append(v, q)
	var prev []float64
	var prevBeta float64

	for j := 0; j < steps; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Fire("spectral.lanczos"); err != nil {
			return nil, fmt.Errorf("spectral: %w", err)
		}
		w := op.Apply(v[j])
		if prev != nil {
			axpy(w, prev, -prevBeta)
		}
		a := dot(w, v[j])
		alpha = append(alpha, a)
		axpy(w, v[j], -a)
		// Full reorthogonalisation (twice for stability).
		for pass := 0; pass < 2; pass++ {
			for _, u := range v {
				axpy(w, u, -dot(w, u))
			}
		}
		b := norm(w)
		if j == steps-1 {
			break
		}
		if b < 1e-12 {
			// Invariant subspace found; restart with a fresh random
			// direction orthogonal to everything so far. The new vector
			// is uncoupled from the previous one, so the tridiagonal
			// off-diagonal entry must be zero.
			w = randomUnit(rng, n)
			for pass := 0; pass < 2; pass++ {
				for _, u := range v {
					axpy(w, u, -dot(w, u))
				}
			}
			nb := norm(w)
			if nb < 1e-12 {
				break // space exhausted (n small)
			}
			scale(w, 1/nb)
			beta = append(beta, 0)
			prev = nil
			prevBeta = 0
			v = append(v, w)
			continue
		}
		scale(w, 1/b)
		beta = append(beta, b)
		prev = v[j]
		prevBeta = b
		v = append(v, w)
	}

	m := len(alpha)
	if m < k {
		return nil, fmt.Errorf("spectral: Krylov space dimension %d below k=%d", m, k)
	}
	// Solve the tridiagonal eigenproblem.
	d := append([]float64(nil), alpha...)
	e := make([]float64, m)
	for i := 1; i < m; i++ {
		e[i] = beta[i-1]
	}
	z := make([][]float64, m)
	for i := range z {
		z[i] = make([]float64, m)
		z[i][i] = 1
	}
	if err := tql2(d, e, z); err != nil {
		return nil, err
	}

	// Assemble the top-k Ritz vectors (eigenvalues ascending → take the
	// last k, reversed to descending).
	out := &Eigen{
		Values:  make([]float64, k),
		Vectors: make([][]float64, k),
	}
	for t := 0; t < k; t++ {
		col := m - 1 - t
		out.Values[t] = d[col]
		vec := make([]float64, n)
		for i := 0; i < m; i++ {
			if z[i][col] != 0 {
				axpy(vec, v[i], z[i][col])
			}
		}
		// Normalise (reorthogonalisation keeps this near 1 already).
		if nv := norm(vec); nv > 0 {
			scale(vec, 1/nv)
		}
		out.Vectors[t] = vec
	}
	return out, nil
}

func randomUnit(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	scale(q, 1/norm(q))
	return q
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func axpy(y, x []float64, alpha float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}

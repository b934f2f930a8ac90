package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func TestTransitionMatrixRowStochastic(t *testing.T) {
	a := matrix.FromDense([][]float64{
		{0, 2, 2},
		{1, 0, 0},
		{0, 0, 0}, // dangling
	})
	p := TransitionMatrix(a)
	if p.At(0, 1) != 0.5 || p.At(0, 2) != 0.5 || p.At(1, 0) != 1 {
		t.Fatalf("transition matrix wrong: %v", p.ToDense())
	}
	if p.RowNNZ(2) != 0 {
		t.Fatal("dangling row gained entries")
	}
}

func TestTransitionMatrixPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransitionMatrix(matrix.Zero(2, 3))
}

func TestStationaryUniformOnCycle(t *testing.T) {
	// Directed 4-cycle with no teleport: stationary distribution is
	// uniform. Use a tiny teleport to guarantee ergodicity numerically.
	n := 4
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 1)
	}
	pi, err := StationaryDistributionCtx(context.Background(), TransitionMatrix(b.Build()), Options{Teleport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pi {
		if math.Abs(v-0.25) > 1e-8 {
			t.Fatalf("π[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestStationarySumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			b.Add(i, rng.Intn(n), 1)
		}
	}
	pi, err := StationaryDistributionCtx(context.Background(), TransitionMatrix(b.Build()), Options{Teleport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pi {
		if v < 0 {
			t.Fatalf("negative stationary mass %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σπ = %v", sum)
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	// Verify π ≈ π·P' by applying one more blended step by hand.
	rng := rand.New(rand.NewSource(17))
	n := 30
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(4)
		for d := 0; d < deg; d++ {
			b.Add(i, rng.Intn(n), 1+rng.Float64())
		}
	}
	p := TransitionMatrix(b.Build())
	const tel = 0.05
	pi, err := StationaryDistributionCtx(context.Background(), p, Options{Teleport: tel, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	step := make([]float64, n)
	var danglingMass float64
	for i := 0; i < n; i++ {
		if p.RowNNZ(i) == 0 {
			danglingMass += pi[i]
		}
	}
	base := (1-tel)*danglingMass/float64(n) + tel/float64(n)
	for i := range step {
		step[i] = base
	}
	for i := 0; i < n; i++ {
		cols, vals := p.Row(i)
		for k, c := range cols {
			step[c] += (1 - tel) * pi[i] * vals[k]
		}
	}
	for i := range step {
		if math.Abs(step[i]-pi[i]) > 1e-9 {
			t.Fatalf("π not a fixed point at %d: %v vs %v", i, step[i], pi[i])
		}
	}
}

func TestStationaryHandlesDangling(t *testing.T) {
	// Node 1 is dangling; without the dangling fix mass would leak.
	a := matrix.FromDense([][]float64{
		{0, 1},
		{0, 0},
	})
	pi, err := StationaryDistributionCtx(context.Background(), TransitionMatrix(a), Options{Teleport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-9 {
		t.Fatalf("mass leaked: %v", pi)
	}
	if pi[1] <= pi[0] {
		t.Fatalf("node 1 receives all of node 0's mass, want π[1] > π[0]: %v", pi)
	}
}

func TestStationaryRejectsBadTeleport(t *testing.T) {
	p := TransitionMatrix(matrix.Identity(2))
	if _, err := StationaryDistributionCtx(context.Background(), p, Options{Teleport: -0.1}); err == nil {
		t.Fatal("accepted negative teleport")
	}
	if _, err := StationaryDistributionCtx(context.Background(), p, Options{Teleport: 1}); err == nil {
		t.Fatal("accepted teleport = 1")
	}
}

func TestStationaryRejectsEmpty(t *testing.T) {
	if _, err := StationaryDistributionCtx(context.Background(), matrix.Zero(0, 0), Options{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}

func TestStationaryMaxIter(t *testing.T) {
	// A 2-periodic star chain with zero teleport oscillates: from the
	// uniform start, mass alternates between the hub and the leaves.
	// (A plain 2-cycle would not do: uniform is already stationary.)
	a := matrix.FromDense([][]float64{
		{0, 1, 1},
		{1, 0, 0},
		{1, 0, 0},
	})
	if _, err := StationaryDistributionCtx(context.Background(), TransitionMatrix(a), Options{Teleport: 0, MaxIter: 5}); err == nil {
		t.Fatal("periodic chain reported converged")
	}
}

func TestPageRankFavoursPopularNode(t *testing.T) {
	// Star pointing at node 0: node 0 should have the highest rank.
	n := 10
	b := matrix.NewBuilder(n, n)
	for i := 1; i < n; i++ {
		b.Add(i, 0, 1)
	}
	b.Add(0, 1, 1) // give node 0 an out-link so it is not dangling
	pr, err := PageRankCtx(context.Background(), b.Build(), DefaultTeleport)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < n; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %v not above leaf rank %v", pr[0], pr[i])
		}
	}
}

package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestARIIdenticalAndRelabelled(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{7, 7, 3, 3, 0, 0}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI = %v, want 1", got)
	}
}

func TestARIIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.05 {
		t.Fatalf("ARI of independent partitions = %v, want near 0", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Hand-computed example: a = {0,0,1,1}, b = {0,1,1,1}.
	// Contingency: (0,0)=1 (0,1)=1 (1,1)=2.
	// sumIJ = C(2,2)=1. sumA = C(2,2)+C(2,2)=2. sumB = C(1,2)+C(3,2)=3.
	// total = C(4,2)=6. expected = 2*3/6 = 1. maxIdx = 2.5.
	// ARI = (1-1)/(2.5-1) = 0.
	got, err := ARI([]int{0, 0, 1, 1}, []int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Fatalf("ARI = %v, want 0", got)
	}
}

func TestARIErrors(t *testing.T) {
	if _, err := ARI([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := ARI([]int{-1}, []int{0}); err == nil {
		t.Fatal("accepted negative id")
	}
	if _, err := ARI(nil, nil); err == nil {
		t.Fatal("accepted empty input")
	}
}

func TestARITrivial(t *testing.T) {
	got, err := ARI([]int{0, 0}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("ARI trivial = %v, want 1", got)
	}
}

package eval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// labelled generates a random clustering + overlapping ground truth
// over the same nodes.
type labelled struct {
	Assign []int
	Truth  *GroundTruth
}

// Generate implements quick.Generator.
func (labelled) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(60)
	k := 1 + rng.Intn(8)
	cats := 1 + rng.Intn(8)
	assign := make([]int, n)
	truth := make([][]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
		switch rng.Intn(4) {
		case 0: // unlabelled
		case 1: // two categories
			a, b := rng.Intn(cats), rng.Intn(cats)
			if a == b {
				truth[i] = []int{a}
			} else if a < b {
				truth[i] = []int{a, b}
			} else {
				truth[i] = []int{b, a}
			}
		default:
			truth[i] = []int{rng.Intn(cats)}
		}
	}
	gt, err := NewGroundTruth(truth)
	if err != nil {
		panic(err)
	}
	return reflect.ValueOf(labelled{Assign: assign, Truth: gt})
}

var quickCfg = &quick.Config{MaxCount: 200}

func TestQuickAvgFInUnitInterval(t *testing.T) {
	f := func(l labelled) bool {
		rep, err := Evaluate(l.Assign, l.Truth)
		if err != nil {
			return false
		}
		if rep.AvgF < 0 || rep.AvgF > 1 {
			return false
		}
		for _, c := range rep.Clusters {
			if c.F < 0 || c.F > 1 || c.Precision < 0 || c.Precision > 1 || c.Recall < 0 || c.Recall > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPerfectClusteringScoresPerfect(t *testing.T) {
	// Clustering by the (single) true category of fully labelled nodes
	// scores AvgF = 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		cats := 1 + rng.Intn(6)
		assign := make([]int, n)
		truth := make([][]int, n)
		for i := range assign {
			c := rng.Intn(cats)
			assign[i] = c
			truth[i] = []int{c}
		}
		gt, err := NewGroundTruth(truth)
		if err != nil {
			return false
		}
		rep, err := Evaluate(assign, gt)
		if err != nil {
			return false
		}
		return rep.AvgF > 1-1e-12
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignTestSymmetry(t *testing.T) {
	// Swapping the clusterings swaps the counts and keeps the p-value.
	f := func(l labelled, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		other := make([]int, len(l.Assign))
		for i := range other {
			other[i] = rng.Intn(4)
		}
		ca, err := CorrectNodes(l.Assign, l.Truth)
		if err != nil {
			return false
		}
		cb, err := CorrectNodes(other, l.Truth)
		if err != nil {
			return false
		}
		ab, err := SignTest(ca, cb)
		if err != nil {
			return false
		}
		ba, err := SignTest(cb, ca)
		if err != nil {
			return false
		}
		if ab.NAOnly != ba.NBOnly || ab.NBOnly != ba.NAOnly {
			return false
		}
		diff := ab.Log10P - ba.Log10P
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCorrectNodesSubsetOfLabelled(t *testing.T) {
	f := func(l labelled) bool {
		correct, err := CorrectNodes(l.Assign, l.Truth)
		if err != nil {
			return false
		}
		for i, c := range correct {
			if c && len(l.Truth.Categories[i]) == 0 {
				return false // unlabelled nodes can never be correct
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickARIBounded(t *testing.T) {
	f := func(l labelled, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		other := make([]int, len(l.Assign))
		for i := range other {
			other[i] = rng.Intn(5)
		}
		ari, err := ARI(l.Assign, other)
		return err == nil && !(ari > 1+1e-12) // one node has no pairs: NaN
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

package eval

import "fmt"

// ARI compares two flat partitions of the same node set (it does not
// handle overlapping ground truth; Evaluate is the paper's best-match
// F-measure). pipeline's identity tests hold a clusterer's run on a
// permuted graph to its unpermuted run with it.

// contingency builds the joint count table of two assignments and the
// marginals.
func contingency(a, b []int) (table map[[2]int]int, aCount, bCount map[int]int, n int, err error) {
	if len(a) != len(b) {
		return nil, nil, nil, 0, fmt.Errorf("eval: assignments length mismatch %d vs %d", len(a), len(b))
	}
	table = make(map[[2]int]int)
	aCount = make(map[int]int)
	bCount = make(map[int]int)
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return nil, nil, nil, 0, fmt.Errorf("eval: negative cluster id at node %d", i)
		}
		table[[2]int{a[i], b[i]}]++
		aCount[a[i]]++
		bCount[b[i]]++
	}
	return table, aCount, bCount, len(a), nil
}

// ARI returns the adjusted Rand index between two assignments: 1 for
// identical partitions, ~0 for independent ones, negative for
// less-than-chance agreement.
func ARI(a, b []int) (float64, error) {
	table, aCount, bCount, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("eval: empty assignments")
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumA, sumB float64
	for _, c := range table {
		sumIJ += choose2(c)
	}
	for _, c := range aCount {
		sumA += choose2(c)
	}
	for _, c := range bCount {
		sumB += choose2(c)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}

package metis

import (
	"context"

	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// kwayRefine runs greedy k-way boundary refinement after recursive
// bisection: each pass visits every node adjacent to another part and
// applies the edge-cut-reducing move with the best gain, subject to the
// balance constraint. Recursive bisection optimises each cut in
// isolation; this direct k-way pass fixes the seams between sibling
// parts. ctx is polled once per pass; a cancelled context stops
// refining and returns the assignment as improved so far (the caller
// surfaces the cancellation).
func (ws *workspace) kwayRefine(ctx context.Context, adj *matrix.CSR, assign []int, k int, maxWeight float64, passes int) []int {
	n := adj.Rows
	partWeight, linkTo := multilevel.Resize(ws.partWeight, k), multilevel.Resize(ws.linkTo, k)
	ws.partWeight, ws.linkTo = partWeight, linkTo
	clear(partWeight)
	clear(linkTo)
	for _, p := range assign {
		partWeight[p]++
	}

	touched := ws.touched
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			break
		}
		moved := 0
		for i := 0; i < n; i++ {
			a := assign[i]
			if partWeight[a] <= 1 {
				continue
			}
			cols, vals := adj.Row(i)
			touched = touched[:0]
			for t, c := range cols {
				if int(c) == i {
					continue
				}
				p := assign[c]
				if linkTo[p] == 0 {
					touched = append(touched, p)
				}
				linkTo[p] += vals[t]
			}
			bestGain := 0.0
			bestPart := -1
			for _, p := range touched {
				if p == a || partWeight[p]+1 > maxWeight {
					continue
				}
				// Moving i from a to p reduces the cut by
				// linkTo[p] − linkTo[a].
				if gain := linkTo[p] - linkTo[a]; gain > bestGain+1e-12 {
					bestGain = gain
					bestPart = p
				}
			}
			if bestPart >= 0 {
				partWeight[a]--
				partWeight[bestPart]++
				assign[i] = bestPart
				moved++
			}
			for _, p := range touched {
				linkTo[p] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
	ws.touched = touched
	return assign
}

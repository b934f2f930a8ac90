package graph

import (
	"bufio"
	"fmt"
	"io"
)

// The METIS graph format (Karypis & Kumar), the lingua franca of graph
// partitioning tools: a header "nvtxs nedges [fmt]" followed by one
// line per vertex listing its (1-indexed) neighbours, with edge weights
// interleaved when fmt's last digit is 1. Symmetrized graphs written in
// this format (symcluster -metisout) can be fed to the original
// metis/gpmetis binaries; nothing here reads it back.

// WriteMetisGraph writes the undirected graph in METIS format. Edge
// weights are included (fmt "001") unless every weight equals 1.
// Self-loops are not representable in the format and are skipped.
// METIS requires integer edge weights; real-valued weights are scaled
// by weightScale and rounded (pass 1 for integer-weighted graphs, or
// e.g. 1000 to keep three decimal digits). Rounded-to-zero weights are
// written as 1 so the edge survives.
func WriteMetisGraph(w io.Writer, g *Undirected, weightScale float64) error {
	if weightScale <= 0 {
		weightScale = 1
	}
	weighted := false
	for i := 0; i < g.N() && !weighted; i++ {
		_, vals := g.Adj.Row(i)
		for _, v := range vals {
			if v != 1 {
				weighted = true
				break
			}
		}
	}
	edges := 0
	for i := 0; i < g.N(); i++ {
		cols, _ := g.Adj.Row(i)
		for _, c := range cols {
			if int(c) > i {
				edges++
			}
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% symcluster symmetrized graph\n")
	if weighted {
		fmt.Fprintf(bw, "%d %d 001\n", g.N(), edges)
	} else {
		fmt.Fprintf(bw, "%d %d\n", g.N(), edges)
	}
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Adj.Row(i)
		first := true
		for k, c := range cols {
			if int(c) == i {
				continue // self-loops unsupported
			}
			if !first {
				fmt.Fprint(bw, " ")
			}
			first = false
			if weighted {
				wInt := int64(vals[k]*weightScale + 0.5)
				if wInt < 1 {
					wInt = 1
				}
				fmt.Fprintf(bw, "%d %d", c+1, wInt)
			} else {
				fmt.Fprintf(bw, "%d", c+1)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

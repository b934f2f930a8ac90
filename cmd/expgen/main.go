// Command expgen writes one of the experiments' synthetic datasets as
// an edge-list file (plus label and ground-truth files) so it can be
// inspected, fed to external tools, or run through `symcluster -truth`.
// The graphs are experiments.Load's, byte for byte, so a run on them
// reproduces an EXPERIMENTS.md row.
//
// Usage:
//
//	expgen -dataset cora|wiki|flickr|livejournal|figure1 -out PREFIX [-seed N] [-scale small|paper]
//
// Writes PREFIX.edges, PREFIX.labels and (when ground truth exists)
// PREFIX.truth.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"symcluster/internal/experiments"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, factored out of main so tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataset := fs.String("dataset", "cora", "dataset to write: cora, wiki, flickr, livejournal, figure1")
	out := fs.String("out", "", "output file prefix (required)")
	seed := fs.Int64("seed", 1, "generator seed, as experiments -seed")
	scaleFlag := fs.String("scale", "small", "dataset scale: small or paper")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "expgen %s %s\n", obs.Version, runtime.Version())
		return 0
	}
	if *out == "" {
		fmt.Fprintln(stderr, "expgen: -out PREFIX is required")
		fs.Usage()
		return 2
	}
	scale := experiments.Small
	switch *scaleFlag {
	case "small":
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(stderr, "expgen: unknown scale %q\n", *scaleFlag)
		return 2
	}

	if !slices.Contains([]string{"cora", "wiki", "flickr", "livejournal", "figure1"}, *dataset) {
		fmt.Fprintf(stderr, "expgen: unknown dataset %q\n", *dataset)
		return 2
	}
	d := gen.Figure1()
	if *dataset != "figure1" {
		all, err := experiments.Load(scale, *seed)
		if err != nil {
			return fail(stderr, err)
		}
		d = map[string]*gen.Dataset{"cora": all.Cora, "wiki": all.Wiki, "flickr": all.Flickr, "livejournal": all.LiveJournal}[*dataset]
	}

	if err := writeFile(*out+".edges", func(w io.Writer) error {
		return graph.WriteEdgeList(w, d.Graph)
	}); err != nil {
		return fail(stderr, err)
	}
	if d.Graph.Labels != nil {
		if err := writeFile(*out+".labels", func(w io.Writer) error {
			return graph.WriteLabels(w, d.Graph.Labels)
		}); err != nil {
			return fail(stderr, err)
		}
	}
	if d.Truth != nil {
		if err := writeFile(*out+".truth", func(w io.Writer) error {
			return graph.WriteGroundTruth(w, d.Truth.Categories)
		}); err != nil {
			return fail(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "expgen: wrote %s (%d nodes, %d edges, %.1f%% symmetric)\n",
		*out+".edges", d.Graph.N(), d.Graph.M(), 100*d.Graph.SymmetricLinkFraction())
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "expgen:", err)
	return 1
}

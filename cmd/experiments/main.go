// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic dataset substitutes.
//
// Usage:
//
//	experiments [-scale small|paper] [-seed N] <experiment>...
//	experiments -scale paper all
//
// Experiments, in the order all runs them: table1 table2 fig4 fig5a
// fig5b fig6a fig7a fig7b fig9a fig9b table3 table4 table5 signtest
// casestudy fig10 spam controlled fig6dense zhou
//
// A sweep's table holds both its Avg-F and its clustering times, so
// fig6a also gives Figure 6(b), and fig7a/fig7b give Figure 8(a)/8(b).
//
// Every name is checked before any dataset is generated; an unknown one
// exits 2 with the valid set. Ctrl-C cancels the run within one kernel
// block. -cpuprofile/-memprofile write pprof profiles covering the
// whole batch, the usual first step when an experiment regresses in
// runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"symcluster/internal/experiments"
	"symcluster/internal/gen"
)

// runFunc runs one experiment. Its result is a Table, printed as text
// and written by -csv; fig4 and fig10 print a drawing instead (drawn),
// and fig10's table is empty, so it writes no CSV.
type runFunc func(ctx context.Context, d *experiments.Datasets, seed int64) (tab experiments.Table, drawn string, err error)

// catalog is every experiment, in the order all runs them. The usage
// text is built from it and the package comment is held to it
// (TestCatalogIsTheDocumentedSet).
var catalog = []struct {
	name string
	run  runFunc
}{
	{"table1", func(_ context.Context, d *experiments.Datasets, _ int64) (experiments.Table, string, error) {
		return experiments.StatsTable(experiments.Table1(d)), "", nil
	}},
	{"table2", func(ctx context.Context, d *experiments.Datasets, _ int64) (experiments.Table, string, error) {
		rows, err := experiments.Table2(ctx, d)
		return experiments.SizeTable(rows), "", err
	}},
	{"fig4", func(ctx context.Context, d *experiments.Datasets, _ int64) (experiments.Table, string, error) {
		rows, err := experiments.Figure4(ctx, d.Wiki)
		return experiments.DegreeTable(rows), experiments.FormatFigure4(rows), err
	}},
	{"fig5a", series("Figure 5(a): Avg F-scores using MLR-MCL on Cora", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure5(ctx, d.Cora, experiments.AlgoMLRMCL, seed)
	})},
	{"fig5b", series("Figure 5(b): Avg F-scores using Graclus on Cora", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure5(ctx, d.Cora, experiments.AlgoGraclus, seed)
	})},
	{"fig6a", series("Figures 6(a,b): Degree-discounted vs BestWCut on Cora (Avg F, clustering times)", figure6)},
	{"fig7a", series("Figures 7(a), 8(a): Avg F and clustering times using MLR-MCL on Wiki", figure7(experiments.AlgoMLRMCL))},
	{"fig7b", series("Figures 7(b), 8(b): Avg F and clustering times using Metis on Wiki", figure7(experiments.AlgoMetis))},
	{"fig9a", series("Figure 9(a): clustering times using MLR-MCL on Flickr substitute", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure9(ctx, d.Flickr, seed)
	})},
	{"fig9b", series("Figure 9(b): clustering times using MLR-MCL on LiveJournal substitute", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure9(ctx, d.LiveJournal, seed)
	})},
	{"table3", func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		rows, err := experiments.Table3(ctx, d.Wiki, nil, 0, seed)
		return experiments.ThresholdTable(rows), "", err
	}},
	{"table4", func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		rows, err := experiments.Table4(ctx, d.Cora, d.Wiki, seed)
		return experiments.AlphaBetaTable(rows), "", err
	}},
	{"table5", func(ctx context.Context, d *experiments.Datasets, _ int64) (experiments.Table, string, error) {
		rows, err := experiments.Table5(ctx, d.Wiki, 5)
		return experiments.TopEdgeTable(rows), "", err
	}},
	{"signtest", func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		rows, err := experiments.SignTests(ctx, d.Cora, d.Wiki, seed)
		return experiments.SignTestTable(rows), "", err
	}},
	{"casestudy", func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		rows, err := experiments.CaseStudy(ctx, d.Wiki, seed)
		return experiments.CaseStudyTable(rows), "", err
	}},
	{"fig10", func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		sc, err := experiments.RunShowcase(ctx, d.Wiki, seed)
		if err != nil {
			return experiments.Table{}, "", err
		}
		return experiments.Table{}, experiments.FormatShowcase(sc), nil
	}},
	{"spam", func(ctx context.Context, d *experiments.Datasets, _ int64) (experiments.Table, string, error) {
		rows, err := experiments.SpamProbe(ctx, d.Wiki, 0)
		return experiments.SpamTable(rows), "", err
	}},
	{"controlled", func(ctx context.Context, _ *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		rows, err := experiments.ControlledSweep(ctx, nil, gen.ControlledOptions{Seed: seed}, seed)
		return experiments.ControlledTable(rows), "", err
	}},
	{"fig6dense", series("Figure 6(b) era-faithful: dense-eig BestWCut vs multilevel clusterers", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure6Faithful(ctx, d.Cora, seed)
	})},
	{"zhou", series("Zhou et al. directed spectral on Cora (did not finish in the paper)", func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		s, err := experiments.ZhouBaseline(ctx, d.Cora, seed)
		if err != nil {
			return nil, err
		}
		return []experiments.FSeries{*s}, nil
	})},
}

// series runs a Figure 5–9 sweep; its table holds both the Avg-F and the
// clustering time of every point.
func series(title string, sweep func(context.Context, *experiments.Datasets, int64) ([]experiments.FSeries, error)) runFunc {
	return func(ctx context.Context, d *experiments.Datasets, seed int64) (experiments.Table, string, error) {
		s, err := sweep(ctx, d, seed)
		return experiments.SeriesTable(title, s), "", err
	}
}

func figure6(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
	return experiments.Figure6(ctx, d.Cora, seed)
}

func figure7(algo experiments.Algo) func(context.Context, *experiments.Datasets, int64) ([]experiments.FSeries, error) {
	return func(ctx context.Context, d *experiments.Datasets, seed int64) ([]experiments.FSeries, error) {
		return experiments.Figure7(ctx, d.Wiki, algo, seed)
	}
}

// catalogNames lists the catalog in order.
func catalogNames() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// resolve turns the requested names into catalog entries, all
// expanding to the whole catalog; it fails on the first unknown name.
func resolve(args []string) ([]int, error) {
	var picked []int
	for _, name := range args {
		if name == "all" {
			for i := range catalog {
				picked = append(picked, i)
			}
			continue
		}
		i := 0
		for i < len(catalog) && catalog[i].name != name {
			i++
		}
		if i == len(catalog) {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s all", name, strings.Join(catalogNames(), " "))
		}
		picked = append(picked, i)
	}
	return picked, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command body, factored out of main so tests drive it
// in-process. Everything it can refuse — flags, the scale, every
// experiment name — is refused (exit 2) before a profile starts or a
// dataset is generated.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "dataset scale: small or paper")
	seed := fs.Int64("seed", 1, "generator seed")
	csvDir := fs.String("csv", "", "also write each experiment's data as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: experiments [-scale small|paper] [-seed N] <experiment>...\n")
		fmt.Fprintf(stderr, "experiments: %s all\n", strings.Join(catalogNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	scale := experiments.Small
	switch *scaleFlag {
	case "small":
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(stderr, "experiments: unknown scale %q\n", *scaleFlag)
		return 2
	}
	picked, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
			}
			f.Close()
		}()
	}

	// The timing figures (6b, 8, 9) depend on it: the similarity products
	// and the MCL expansion run on workers derived from GOMAXPROCS.
	fmt.Fprintf(stdout, "# GOMAXPROCS=%d (timings scale with it; GOMAXPROCS=1 is the paper's single-threaded set-up)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# generating datasets (scale=%s, seed=%d)...\n", scale, *seed)
	start := time.Now()
	d, err := experiments.Load(scale, *seed)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "# datasets ready in %.1fs\n\n", time.Since(start).Seconds())

	for _, i := range picked {
		name := catalog[i].name
		start := time.Now()
		tab, drawn, err := catalog[i].run(ctx, d, *seed)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", name, err))
		}
		if drawn == "" {
			drawn = tab.Text()
		}
		fmt.Fprintln(stdout, drawn)
		if *csvDir != "" && len(tab.Header) > 0 {
			path := filepath.Join(*csvDir, name+".csv")
			if err := writeCSV(path, tab); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "# wrote %s\n", path)
		}
		fmt.Fprintf(stdout, "# %s completed in %.1fs\n\n", name, time.Since(start).Seconds())
	}
	return 0
}

func writeCSV(path string, tab experiments.Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "experiments:", err)
	return 1
}

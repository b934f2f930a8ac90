// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic dataset substitutes.
//
// Usage:
//
//	experiments [-scale small|paper] [-seed N] <experiment>...
//	experiments -scale paper all
//
// Experiments: table1 table2 table3 table4 table5 fig4 fig5a fig5b
// fig6a fig6b fig7a fig7b fig8a fig8b fig9a fig9b signtest casestudy
// spam all
//
// -cpuprofile/-memprofile write pprof profiles covering the whole
// batch, the usual first step when an experiment regresses in runtime.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"symcluster/internal/experiments"
	"symcluster/internal/gen"
)

func main() {
	scaleFlag := flag.String("scale", "small", "dataset scale: small or paper")
	seed := flag.Int64("seed", 1, "generator seed")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale small|paper] [-seed N] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 table3 table4 table5 fig4 fig5a fig5b\n")
		fmt.Fprintf(os.Stderr, "             fig6a fig6b fig7a fig7b fig8a fig8b fig9a fig9b\n")
		fmt.Fprintf(os.Stderr, "             fig6dense signtest casestudy spam controlled all\n")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
			f.Close()
		}()
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.Small
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	// The timing figures (6b, 8, 9) depend on it: the similarity products
	// and the MCL expansion run on workers derived from GOMAXPROCS.
	fmt.Printf("# GOMAXPROCS=%d (timings scale with it; GOMAXPROCS=1 is the paper's single-threaded set-up)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("# generating datasets (scale=%s, seed=%d)...\n", scale, *seed)
	start := time.Now()
	d, err := experiments.Load(scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# datasets ready in %.1fs\n\n", time.Since(start).Seconds())

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "table2", "fig4", "fig5a", "fig5b", "fig6a", "fig6b",
			"fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b",
			"table3", "table4", "table5", "signtest", "casestudy", "fig10", "spam", "controlled", "fig6dense"}
	}
	for _, name := range names {
		runOne(name, d, *seed, *csvDir)
	}
}

func runOne(name string, d *experiments.Datasets, seed int64, csvDir string) {
	start := time.Now()
	var out string
	var err error
	var emitCSV func(io.Writer) error
	switch name {
	case "table1":
		out = experiments.FormatTable1(experiments.Table1(d))
	case "table2":
		var rows []experiments.SymmetrizationSize
		rows, err = experiments.Table2(d)
		if err == nil {
			out = experiments.FormatTable2(rows)
			emitCSV = func(w io.Writer) error { return experiments.WriteTable2CSV(w, rows) }
		}
	case "table3":
		var rows []experiments.ThresholdRow
		rows, err = experiments.Table3(d.Wiki, nil, 0, seed)
		if err == nil {
			out = experiments.FormatTable3(rows)
			emitCSV = func(w io.Writer) error { return experiments.WriteTable3CSV(w, rows) }
		}
	case "table4":
		var rows []experiments.AlphaBetaRow
		rows, err = experiments.Table4(d.Cora, d.Wiki, seed)
		if err == nil {
			out = experiments.FormatTable4(rows)
			emitCSV = func(w io.Writer) error { return experiments.WriteTable4CSV(w, rows) }
		}
	case "table5":
		var rows []experiments.TopEdgeRow
		rows, err = experiments.Table5(d.Wiki, 5)
		if err == nil {
			out = experiments.FormatTable5(rows)
		}
	case "fig4":
		var rows []experiments.DegreeDistribution
		rows, err = experiments.Figure4(d.Wiki)
		if err == nil {
			out = experiments.FormatFigure4(rows)
			emitCSV = func(w io.Writer) error { return experiments.WriteFigure4CSV(w, rows) }
		}
	case "fig5a", "fig5b":
		algo := experiments.AlgoMLRMCL
		title := "Figure 5(a): Avg F-scores using MLR-MCL on Cora"
		if name == "fig5b" {
			algo = experiments.AlgoGraclus
			title = "Figure 5(b): Avg F-scores using Graclus on Cora"
		}
		var series []experiments.FSeries
		series, err = experiments.Figure5(d.Cora, algo, seed)
		if err == nil {
			out = experiments.FormatSeries(title, series)
			emitCSV = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
		}
	case "fig6a", "fig6b":
		var series []experiments.FSeries
		series, err = experiments.Figure6(d.Cora, seed)
		if err == nil {
			emitCSV = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
			if name == "fig6a" {
				out = experiments.FormatSeries("Figure 6(a): Degree-discounted vs BestWCut on Cora (Avg F)", series)
			} else {
				out = experiments.FormatTimes("Figure 6(b): clustering times on Cora (log-scale in the paper)", series)
			}
		}
	case "fig6dense":
		var series []experiments.FSeries
		series, err = experiments.Figure6Faithful(d.Cora, seed)
		if err == nil {
			out = experiments.FormatTimes("Figure 6(b) era-faithful: dense-eig BestWCut vs multilevel clusterers", series)
			emitCSV = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
		}
	case "fig7a", "fig7b", "fig8a", "fig8b":
		algo := experiments.AlgoMLRMCL
		if name == "fig7b" || name == "fig8b" {
			algo = experiments.AlgoMetis
		}
		var series []experiments.FSeries
		series, err = experiments.Figure7(d.Wiki, algo, seed)
		if err == nil {
			emitCSV = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
			switch name {
			case "fig7a":
				out = experiments.FormatSeries("Figure 7(a): Avg F using MLR-MCL on Wiki", series)
			case "fig7b":
				out = experiments.FormatSeries("Figure 7(b): Avg F using Metis on Wiki", series)
			case "fig8a":
				out = experiments.FormatTimes("Figure 8(a): clustering times using MLR-MCL on Wiki", series)
			case "fig8b":
				out = experiments.FormatTimes("Figure 8(b): clustering times using Metis on Wiki", series)
			}
		}
	case "fig9a", "fig9b":
		ds := d.Flickr
		title := "Figure 9(a): clustering times using MLR-MCL on Flickr substitute"
		if name == "fig9b" {
			ds = d.LiveJournal
			title = "Figure 9(b): clustering times using MLR-MCL on LiveJournal substitute"
		}
		var series []experiments.FSeries
		series, err = experiments.Figure9(ds, seed)
		if err == nil {
			out = experiments.FormatTimes(title, series)
			emitCSV = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
		}
	case "signtest":
		var rows []experiments.SignTestRow
		rows, err = experiments.SignTests(d.Cora, d.Wiki, seed)
		if err == nil {
			out = experiments.FormatSignTests(rows)
		}
	case "casestudy":
		var rows []experiments.CaseStudyResult
		rows, err = experiments.CaseStudy(d.Wiki, seed)
		if err == nil {
			out = experiments.FormatCaseStudy(rows)
		}
	case "spam":
		var rows []experiments.SpamProbeResult
		rows, err = experiments.SpamProbe(d.Wiki, 0, seed)
		if err == nil {
			out = experiments.FormatSpamProbe(rows)
		}
	case "zhou":
		var s *experiments.FSeries
		s, err = experiments.ZhouBaseline(d.Cora, seed)
		if err == nil {
			out = experiments.FormatSeries("Zhou et al. directed spectral on Cora (did not finish in the paper)", []experiments.FSeries{*s})
		}
	case "fig10":
		var sc *experiments.Showcase
		sc, err = experiments.RunShowcase(d.Wiki, seed)
		if err == nil {
			out = experiments.FormatShowcase(sc)
		}
	case "controlled":
		var rows []experiments.ControlledRow
		rows, err = experiments.ControlledSweep(nil, gen.ControlledOptions{Seed: seed}, seed)
		if err == nil {
			out = experiments.FormatControlled(rows)
			emitCSV = func(w io.Writer) error { return experiments.WriteControlledCSV(w, rows) }
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
	if csvDir != "" && emitCSV != nil {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := emitCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote %s\n", path)
	}
	fmt.Printf("# %s completed in %.1fs\n\n", name, time.Since(start).Seconds())
}

func fatal(err error) {
	// os.Exit skips deferred cleanup, so flush the CPU profile here;
	// StopCPUProfile is a no-op when profiling never started.
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

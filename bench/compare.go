package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back:
// which way each end-to-end metric is better and by how much it may
// worsen (compare), and every name and unit (the smoke test).
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords loads the untraced full-scale runs of a results.jsonl,
// keyed by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := new(record)
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 && rec.Scale == "full" {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// side is one metric on one side of a comparison.
type side struct {
	n              int
	q1, median, q3 float64
}

// quartiles takes the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark's driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

func summarize(recs []*record, metric string) side {
	var vals []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	s := side{n: len(vals)}
	if s.n == 0 {
		return s
	}
	s.median = median(vals)
	s.q1, s.q3 = s.median, s.median
	if s.n >= 2 {
		s.q1, s.q3 = quartiles(vals)
	}
	return s
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// verdictOf compares change against base under the metric's bound. It
// answers unresolved, never a direction, when either side's own spread
// exceeds the bound: a delta smaller than the noise says nothing.
// Otherwise a median worse than the base's by more than the bound has
// regressed; one better by more than the base's own quartile distance
// has improved; the rest is unchanged.
func verdictOf(base, change side, better string, bound float64) string {
	if base.n == 0 || change.n == 0 {
		return "missing"
	}
	if base.spread() > bound || change.spread() > bound {
		return "unresolved"
	}
	worse := change.median - base.median
	if better == "higher" {
		worse = -worse
	}
	if worse > bound*base.median {
		return "regressed"
	}
	if -worse > base.q3-base.q1 && -worse > 0 {
		return "improved"
	}
	return "unchanged"
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-benchmark BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
	}
	def, err := readBenchmarkFile(*benchPath)
	if err != nil {
		return err
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase n\tbase q1\tbase median\tbase q3\tchange n\tchange q1\tchange median\tchange q3\tdelta\tbound\tverdict")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, c := summarize(base[wl.Name], m.Name), summarize(change[wl.Name], m.Name)
			v := verdictOf(b, c, m.Better, m.Bound)
			delta := "-"
			if v != "unresolved" && v != "missing" && b.median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(c.median-b.median)/b.median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%d\t%.5g\t%.5g\t%.5g\t%s\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, b.n, b.q1, b.median, b.q3, c.n, c.q1, c.median, c.q3, delta, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, set := range []struct {
		label string
		recs  map[string][]*record
	}{{"base", base}, {"change", change}} {
		for _, wl := range def.Workloads {
			if recs := set.recs[wl.Name]; len(recs) > 0 {
				r := recs[0]
				var ops []int
				for _, x := range recs {
					ops = append(ops, x.Ops)
				}
				fmt.Fprintf(w, "%s %s: commit %s, %s, GOMAXPROCS %d of %d CPUs (%s), seeds from %d, ops per run %v\n",
					set.label, wl.Name, r.Commit, r.GoVersion, r.GOMAXPROCS, r.NProc, r.CPUModel, r.Seed, ops)
			}
		}
	}
	return nil
}

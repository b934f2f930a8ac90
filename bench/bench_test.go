package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestTablesAgree pins BENCHMARK.json to the code's workload and metric
// tables, name by name and unit by unit.
func TestTablesAgree(t *testing.T) {
	def, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, file []benchmarkMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		seen := make(map[string]bool)
		for i, m := range code {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: %s [%s] is not a well-formed name and unit", kind, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("%s: %s is listed twice", kind, m.name)
			}
			seen[m.name] = true
			if file[i].Better != "lower" && file[i].Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, m.name, file[i].Better)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload in both modes at smoke scale: every
// metric of the mode is emitted, nothing fails, and the gate — golden
// digests included — passes.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 1, seconds: 10, traced: traced, sz: smokeSizes, outDir: out}
			rec, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			if rec.Attempted > 2*smokeSizes.maxOps {
				t.Errorf("%s traced=%v: %d ops at smoke scale", w.name, traced, rec.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s [%s] missing or in %q", w.name, traced, m.name, m.unit, got.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, m.name, got.Value)
				}
			}
			if err := appendRecord(filepath.Join(out, "results.jsonl"), rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st, err := os.Stat(filepath.Join(out, "trace.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("traced runs left no trace.jsonl: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	steady := side{n: 10, q1: 99, median: 100, q3: 101}
	for _, c := range []struct {
		name         string
		base, change side
		better, want string
	}{
		{"same", steady, steady, "lower", "unchanged"},
		{"slower past the bound", steady, side{n: 10, q1: 129, median: 130, q3: 131}, "lower", "regressed"},
		{"slower inside the bound", steady, side{n: 10, q1: 119, median: 120, q3: 121}, "lower", "unchanged"},
		{"faster past the noise", steady, side{n: 10, q1: 89, median: 90, q3: 91}, "lower", "improved"},
		{"higher is better", steady, side{n: 10, q1: 69, median: 70, q3: 71}, "higher", "regressed"},
		{"noisy base", side{n: 10, q1: 80, median: 100, q3: 120}, side{n: 10, q1: 49, median: 50, q3: 51}, "lower", "unresolved"},
		{"noisy change", steady, side{n: 10, q1: 30, median: 50, q3: 70}, "lower", "unresolved"},
		{"no runs", steady, side{}, "lower", "missing"},
	} {
		if got := verdictOf(c.base, c.change, c.better, 0.25); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare renders two result sets and never prints a delta beside
// an unresolved verdict.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50s {
			rec := &record{Workload: symCold, Seed: int64(i + 1), Scale: "full", Ops: 100}
			rec.Metrics = map[string]metricValue{
				"latency_p50_ms": {Value: v, Unit: "ms"},
				"ops_per_s":      {Value: 1000 / v, Unit: "1/s"},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	noisy := write("noisy.jsonl", []float64{100, 160, 70, 100, 150, 60, 100, 170, 80, 100})
	var buf bytes.Buffer
	if err := compareMain([]string{"-benchmark", "../BENCHMARK.json", base, noisy}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 2 && fields[0] == symCold && fields[1] == "latency_p50_ms" {
			if fields[len(fields)-1] != "unresolved" || fields[len(fields)-3] != "-" {
				t.Errorf("noisy comparison printed %q", line)
			}
			return
		}
	}
	t.Errorf("no sym_cold latency_p50_ms row in:\n%s", buf.String())
}

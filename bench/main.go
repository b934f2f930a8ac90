// Command bench is the repository benchmark: one invocation runs one
// workload for a fixed time against symclusterd booted in-process
// behind a real loopback listener, checks every output, and prints
// every metric by name with its unit. See bench/README.md.
//
// Usage (normally through bash bench/run.sh, which builds first):
//
//	bench --workload sym_cold|mcl_hot|serve_mixed --seed N --seconds S --trace 0|1
//	      [-scale full|smoke] [-repeat N] [-out DIR]
//	bench compare [-benchmark BENCHMARK.json] BASE.jsonl CHANGE.jsonl
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. Every run is also
// appended, with where and how it was measured, to DIR/results.jsonl,
// which is what compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	var cfg runConfig
	var scale string
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sym_cold, mcl_hot or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "input sizes: full, or smoke for the test suite")
	flag.IntVar(&repeat, "repeat", 1, "runs to make, each with the next seed")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/out", "directory for results.jsonl, trace.jsonl and scratch")
	flag.Parse()
	cfg.traced = trace != 0
	switch scale {
	case "full":
		cfg.sz = fullSizes
	case "smoke":
		cfg.sz = smokeSizes
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q\n", scale)
		os.Exit(2)
	}
	if _, ok := workloadByName(cfg.workload); !ok || flag.NArg() > 0 || cfg.seconds <= 0 || repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: need --workload sym_cold|mcl_hot|serve_mixed, --seconds > 0, -repeat >= 1")
		os.Exit(2)
	}
	if repeat > 1 {
		os.Exit(repeatRuns(cfg, trace, scale, repeat))
	}
	rec, err := run(cfg)
	if err == nil {
		err = appendRecord(filepath.Join(cfg.outDir, "results.jsonl"), rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !rec.Correct {
		os.Exit(1)
	}
}

// repeatRuns makes n runs with consecutive seeds, each in a process of
// its own, as a driver would: a run that inherits the heap of the
// previous one (sym_cold leaves ~450 MB behind) measures up to a
// quarter slower. It returns the exit code: the first failure's.
func repeatRuns(cfg runConfig, trace int, scale string, n int) int {
	for r := 0; r < n; r++ {
		cmd := exec.Command(os.Args[0],
			"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed+int64(r), 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-scale", scale, "-out", cfg.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: run", r+1, "of", n, "failed:", err)
			if cmd.ProcessState != nil && cmd.ProcessState.ExitCode() > 0 {
				return cmd.ProcessState.ExitCode()
			}
			return 1
		}
	}
	return 0
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	outDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result plus what is needed to compare it with another:
// which inputs, which code, which host.
type record struct {
	result
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Scale    string  `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Ops      int     `json:"ops"` // successful ops of the measured loop
	Digest   string  `json:"digest"`
	// HostSlowdown is how much slower than nominal the reference kernel
	// ticked over the measured loop, on average; Whole is what the loop
	// read raw, every op counted and nothing divided (untraced runs).
	// Beside the gated figures they show what the host's neighbours did
	// to the run.
	HostSlowdown float64            `json:"host_slowdown,omitempty"`
	Whole        map[string]float64 `json:"whole_loop,omitempty"`
	Commit       string             `json:"commit"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NProc        int                `json:"nproc"`
	CPUModel     string             `json:"cpu_model"`
}

func newRecord(cfg runConfig) *record {
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.sz.name, Seconds: cfg.seconds,
		Commit:    os.Getenv("BENCH_COMMIT"), // run.sh asks git; a bare checkout has none
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown",
	}
	if cfg.traced {
		rec.Trace = 1
	}
	if rec.Commit == "" {
		rec.Commit = "unknown"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if name, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.HasPrefix(name, []byte("model name")) {
				rec.CPUModel = string(bytes.TrimSpace(v))
				break
			}
		}
	}
	return rec
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setMetrics fills the record with every metric of defs, in the table's
// units; a metric the run did not compute reads 0.
func (rec *record) setMetrics(defs []metricDef, values map[string]float64) {
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

// finish folds the measured stretches and the gate's verdict into the
// record and reports what the gate found.
func (rec *record) finish(v *verdict, stretches ...*stretch) {
	for _, st := range stretches {
		rec.Attempted += len(st.ops)
		rec.Failed += len(st.failures)
		for i, err := range st.failures {
			if i < 5 {
				fmt.Fprintln(os.Stderr, "bench: failed:", err)
			}
		}
	}
	rec.Ops = rec.Attempted - rec.Failed
	rec.Digest = v.digest
	rec.Correct = len(v.errs) == 0
	for _, err := range v.errs {
		fmt.Fprintln(os.Stderr, "bench: gate:", err)
	}
}

func run(cfg runConfig) (*record, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	def, _ := workloadByName(cfg.workload)
	rec := newRecord(cfg)
	var err error
	if cfg.traced {
		err = runTraced(cfg, def, rec)
	} else {
		err = runUntraced(cfg, def, rec)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %d ops, %d failed, correct %v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Ops, rec.Failed, rec.Correct)
	return rec, nil
}

// runUntraced sets up sz.setups times (setup_s is the median; the last
// set-up serves the measured loop), measures for cfg.seconds, and
// checks every output before the servers go down.
func runUntraced(cfg runConfig, def workloadDef, rec *record) error {
	var in *instance
	var setups []float64
	for s := 0; s < cfg.sz.setups; s++ {
		if in != nil {
			in.tearDown()
			runtime.GC()
		}
		ticks := ref.ticks(nil, cfg.sz.pauseTicks)
		start := time.Now()
		var err error
		if in, err = setUp(def, cfg.sz, cfg.seed, cfg.outDir); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		ticks = ref.ticks(ticks, cfg.sz.pauseTicks)
		setups = append(setups, elapsed/(mean(ticks)/refNominalMS))
	}
	st := in.measure(0, time.Duration(cfg.seconds*float64(time.Second)), false)
	v := in.gate(st.ops)
	in.tearDown()
	rec.finish(v, st)

	// Every gated time is relative to the host's slowdown around it
	// (stats.go).
	steady := steadyLatencies(st, def, cfg.sz.pauseTicks)
	rec.HostSlowdown = mean(st.ticks) / refNominalMS
	m := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": median(steady),
		"latency_p90_ms": percentile(steady, 0.9),
		"avg_f":          v.avgF,
	}
	if ops := float64(st.okCount); ops > 0 {
		wallMS, cpuMS := steadyPerOp(st, def, cfg.sz.pauseTicks)
		m["ops_per_s"] = 1e3 / wallMS
		m["cpu_s_per_op"] = cpuMS / 1e3
		m["alloc_mb_per_op"] = st.allocMB / ops
		lat := latencies(st)
		rec.Whole = map[string]float64{
			"ops_per_s":      ops / st.wall.Seconds(),
			"latency_p50_ms": median(lat),
			"latency_p90_ms": percentile(lat, 0.9),
			"cpu_s_per_op":   st.cpu.Seconds() / ops,
		}
	}
	rec.setMetrics(endToEnd, m)
	return nil
}

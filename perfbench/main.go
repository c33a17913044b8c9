// Command perfbench is the repository's benchmark: one program that sets up a
// named workload, drives it through the public APIs of the forms runtime
// (core), the engine, the wire server and replicas, and the client pool and
// fleet, checks every answer it gets, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the load twice on the same set-up — untraced, then with
// spans recorded around every call into a layer — and prints the per-layer
// metrics: counter differences, per-layer self time and the tracing
// overhead. See README.md for the workloads and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: browse, serve, ingest or replicate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured load phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run that reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for database files and span dumps")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	spec, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q", cfg.workload)
	}
	cfg.scale = fullScale
	dir, err := filepath.Abs(filepath.Join(cfg.out, "perfbench-data", cfg.workload))
	if err != nil {
		fatalf("%v", err)
	}
	cfg.dir = dir

	res, err := run(spec, cfg, os.Stdout)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects a run's numbers by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Command perfbench is the end-to-end benchmark of the GPS sampling service.
// It runs gps-serve as a child process, drives it over loopback HTTP from a
// load generator in this process, checks that every answer is correct, and
// prints one JSON result line. Run it through run.sh, which builds both
// binaries from the checkout:
//
//	bash perfbench/run.sh --workload ingest|window --seed N --seconds S --trace 0|1
//
// Workloads (see workloads.go):
//
//	ingest  closed loop, 2 producers, 8192-edge GPSB batches of relabelled
//	        Holme-Kim copies into a triangle-weighted stream (m = 20000)
//	window  windowed turnstile stream (uniform weight, ~10% deletions),
//	        one closed-loop producer
//
// On both, the queries are reads after writes between the load phases,
// which take the whole refresh path.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: spans around
// every HTTP call and every replayed layer call (written to
// <out>/traces/), per-module self times, counters read from the server's
// own /metrics, and the tracing overhead.
//
// Every result line is preceded by a host line ({"host": {...}}) naming the
// CPU, GOMAXPROCS of both processes, Go version, build tags, commit and
// workload seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string // gps-serve binary
	out      string // scratch directory for checkpoints and traces
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest or window")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (the same seed gives the same inputs)")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path of the gps-serve binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for checkpoints and traces")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, host, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

func (o *options) validate() error {
	switch o.workload {
	case "ingest", "window":
	default:
		return fmt.Errorf("unknown --workload %q (want ingest or window)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.server == "" {
		return fmt.Errorf("--server is required (run through perfbench/run.sh)")
	}
	if _, err := os.Stat(o.server); err != nil {
		return fmt.Errorf("gps-serve binary: %w", err)
	}
	o.out = filepath.Join(o.out, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	return os.MkdirAll(o.out, 0o755)
}

// runWorkload sets up, measures and checks one run, then removes its scratch
// files (traces are kept under <out>/../traces).
func runWorkload(o options) (*result, map[string]any, error) {
	defer os.RemoveAll(o.out)
	r := newRun(o)
	defer r.close()
	if err := r.execute(); err != nil {
		return nil, nil, err
	}
	return r.result(), r.hostBlock(), nil
}

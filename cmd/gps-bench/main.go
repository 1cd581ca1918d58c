// Command gps-bench regenerates the paper's evaluation tables and figures
// from the synthetic stand-in datasets at configurable scale.
//
// Usage:
//
//	gps-bench -exp table1|table2|table3|fig1|fig2|fig3|weights|extensions|accuracy|decay|window|throughput|serve|perf|obs|all \
//	          [-profile small|full] [-trials N] [-sample M] [-budget B] [-json] \
//	          [-checkpoints C] [-seed S] [-graphs a,b,c] [-edges N] [-shards P] [-clients Q] \
//	          [-procs 1,2,4,8] [-obs-instrumented F -obs-noobs F]
//	gps-bench -lint FILE|-                 # validate a Prometheus text exposition
//
// Examples:
//
//	gps-bench -exp table1                  # Table 1 at the default scale
//	gps-bench -exp table2 -budget 20000    # baselines at a 20K edge budget
//	gps-bench -exp fig2 -profile full      # convergence sweep, 8× datasets
//	gps-bench -exp throughput -edges 4000000 -shards 8
//	                                       # sequential vs batched vs sharded rate
//	gps-bench -exp serve -edges 1000000 -clients 8
//	                                       # live service: ingest rate + query latency
//	gps-bench -exp perf -json -edges 1000000 -sample 100000 -shards 4 -procs 1,4,8
//	                                       # machine-readable perf trajectory (BENCH_PR*.json)
//	                                       # incl. the GOMAXPROCS ingest sweep
//	gps-bench -exp obs -edges 1000000 -sample 100000 -shards 4
//	                                       # observability overhead: ingest ns/edge +
//	                                       # cached-query latency on this build flavor
//	                                       # (run again with -tags gps_noobs to compare)
//	curl -s localhost:6060/metrics | gps-bench -lint -
//	                                       # lint a live scrape with the in-repo checker
//
// -json switches the perf and throughput experiments to machine-readable
// output (one JSON document on stdout); scripts/bench.sh uses it to record
// the perf trajectory as a CI artifact.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gps"
	"gps/internal/datasets"
	"gps/internal/experiments"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/serve"
	"gps/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gps-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, errw io.Writer) error {
	fs := flag.NewFlagSet("gps-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exp         = fs.String("exp", "all", "experiment: table1, table2, table3, fig1, fig2, fig3, weights, extensions, accuracy, decay, window, throughput, serve, perf, obs, chaos, all")
		jsonOut     = fs.Bool("json", false, "machine-readable JSON output (perf, throughput, decay, window and obs experiments)")
		profileName = fs.String("profile", "small", "dataset scale: small or full")
		trials      = fs.Int("trials", 3, "replications per configuration")
		sample      = fs.Int("sample", 20000, "GPS sample size m (table1, fig1, fig3, weights)")
		budget      = fs.Int("budget", 10000, "edge budget for the baseline comparisons (table2, table3, extensions)")
		checkpoints = fs.Int("checkpoints", 20, "checkpoints along the stream (table3, fig3)")
		seed        = fs.Uint64("seed", 0x69505321, "root seed for all randomness")
		edges       = fs.Int("edges", 1_000_000, "synthetic stream length for -exp throughput/serve")
		shardsFlag  = fs.Int("shards", 4, "shard count for the parallel sampler (throughput, serve)")
		procsFlag   = fs.String("procs", "1,2,4,8", "comma-separated GOMAXPROCS sweep for -exp perf (empty skips the sweep)")
		clients     = fs.Int("clients", 8, "concurrent query clients for -exp serve")
		graphsFlag  = fs.String("graphs", "", "comma-separated dataset names (default: the paper's list per experiment)")
		list        = fs.Bool("list", false, "list available datasets and exit")
		lintFile    = fs.String("lint", "", "validate a Prometheus text exposition file and exit (\"-\" reads stdin)")
		obsInstr    = fs.String("obs-instrumented", "", "obs report JSON from the instrumented build (comma-separated rounds, min-merged), embedded into -exp perf")
		obsNoObs    = fs.String("obs-noobs", "", "obs report JSON from the gps_noobs build (comma-separated rounds, min-merged), embedded into -exp perf")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *lintFile != "" {
		return lintExposition(*lintFile, stdout)
	}
	if (*obsInstr == "") != (*obsNoObs == "") {
		return fmt.Errorf("-obs-instrumented and -obs-noobs must be given together")
	}

	if *list {
		for _, name := range datasets.Names() {
			d, _ := datasets.Get(name)
			fmt.Fprintf(stdout, "%-22s %-14s %s\n", d.Name, d.Kind, d.Notes)
		}
		return nil
	}

	profile := datasets.Small
	switch *profileName {
	case "small":
	case "full":
		profile = datasets.Full
	default:
		return fmt.Errorf("unknown profile %q (want small or full)", *profileName)
	}
	opts := experiments.Options{Profile: profile, Trials: *trials, Seed: *seed}

	var graphs []string
	if *graphsFlag != "" {
		graphs = strings.Split(*graphsFlag, ",")
	}

	emit := func(title, body string) {
		fmt.Fprintf(stdout, "===== %s =====\n%s\n", title, body)
	}
	emitJSON := func(v any) error {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	runOne := func(name string) error {
		if *jsonOut && name != "perf" && name != "throughput" && name != "decay" && name != "window" && name != "obs" {
			return fmt.Errorf("-json is supported for -exp perf, throughput, decay, window and obs, not %q", name)
		}
		switch name {
		case "table1":
			rows, err := experiments.Table1(opts, *sample, graphs)
			if err != nil {
				return err
			}
			emit("Table 1 — GPS in-stream vs post-stream estimation", experiments.RenderTable1(rows))
		case "table2":
			rows, err := experiments.Table2(opts, *budget, graphs)
			if err != nil {
				return err
			}
			emit("Table 2 — baseline comparison at equal edge budget", experiments.RenderTable2(rows))
		case "table3":
			rows, err := experiments.Table3(opts, *budget, *checkpoints, graphs)
			if err != nil {
				return err
			}
			emit("Table 3 — triangle tracking error vs time", experiments.RenderTable3(rows))
		case "fig1":
			pts, err := experiments.Figure1(opts, *sample, graphs)
			if err != nil {
				return err
			}
			emit("Figure 1 — x̂/x for triangles and wedges (in-stream)", experiments.RenderFigure1(pts))
		case "fig2":
			series, err := experiments.Figure2(opts, nil, graphs)
			if err != nil {
				return err
			}
			emit("Figure 2 — convergence with confidence bounds",
				experiments.RenderFigure2(series)+"\n"+experiments.PlotFigure2(series))
		case "fig3":
			series, err := experiments.Figure3(opts, *sample, *checkpoints, graphs)
			if err != nil {
				return err
			}
			emit("Figure 3 — real-time tracking",
				experiments.RenderFigure3(series)+"\n"+experiments.PlotFigure3(series))
		case "weights":
			graphName := "socfb-Penn94"
			if len(graphs) > 0 {
				graphName = graphs[0]
			}
			rows, err := experiments.WeightAblation(opts, *sample, graphName)
			if err != nil {
				return err
			}
			emit("§3.5 ablation — weight functions ("+graphName+")", experiments.RenderAblation(rows))
		case "throughput":
			rep, err := throughput(*edges, *sample, *shardsFlag, *seed)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(rep)
			}
			emit("Throughput — sequential vs batched vs sharded sampling", renderThroughput(rep))
		case "perf":
			procs, err := parseProcs(*procsFlag)
			if err != nil {
				return err
			}
			rep, err := perfBench(*edges, *sample, *shardsFlag, *seed, procs)
			if err != nil {
				return err
			}
			if *obsInstr != "" {
				oh, err := loadObsOverhead(*obsInstr, *obsNoObs)
				if err != nil {
					return err
				}
				rep.ObsOverhead = oh
			}
			if *jsonOut {
				return emitJSON(rep)
			}
			emit("Perf — slot-indexed estimation + incremental snapshots", renderPerf(rep))
		case "obs":
			rep, err := obsBench(*edges, *sample, *shardsFlag, *seed)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(rep)
			}
			emit("Obs — instrumentation overhead on the ingest and query paths", renderObs(rep))
		case "serve":
			body, err := serveBench(*edges, *sample, *shardsFlag, *clients, *seed)
			if err != nil {
				return err
			}
			emit("Serve — concurrent ingestion + query latency over HTTP", body)
		case "chaos":
			body, err := chaosBench(*edges, *sample, *shardsFlag, *seed)
			if err != nil {
				return err
			}
			emit("Chaos — fault-injected run vs fault-free baseline (equivalence drill)", body)
		case "extensions":
			rows, err := experiments.Extensions(opts, *budget, graphs)
			if err != nil {
				return err
			}
			emit("Extensions — JHA and Buriol vs GPS (comparisons the paper omitted)", experiments.RenderExtensions(rows))
		case "accuracy":
			rows, err := experiments.Accuracy(opts, nil, graphs)
			if err != nil {
				return err
			}
			emit("Accuracy — motif estimator NRMSE vs exact counts across m", experiments.RenderAccuracy(rows))
		case "decay":
			rows, err := experiments.DecayAccuracy(opts, experiments.DecayConfig{Shards: *shardsFlag})
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(map[string]any{"schema": "gps-bench/decay/v1", "rows": rows})
			}
			emit("Decay — forward-decayed estimates vs exact decayed counts", experiments.RenderDecay(rows))
		case "window":
			rows, err := experiments.WindowAccuracy(opts, experiments.WindowConfig{Shards: *shardsFlag})
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(map[string]any{"schema": "gps-bench/window/v1", "rows": rows})
			}
			emit("Window — turnstile sliding-window estimates vs exact in-window counts", experiments.RenderWindow(rows))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp == "all" {
		if *jsonOut {
			return fmt.Errorf("-json is supported for -exp perf and -exp throughput, not \"all\"")
		}
		for _, name := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "weights", "extensions"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}

// parseProcs parses the -procs sweep list ("1,2,4,8"); an empty string
// means no sweep.
func parseProcs(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -procs entry %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// throughputReport is the result of the throughput experiment, renderable
// as a text table or emitted as JSON with -json.
type throughputReport struct {
	Schema  string          `json:"schema"`
	Scale   int             `json:"rmat_scale"`
	Edges   int             `json:"edges"`
	SampleM int             `json:"m"`
	Shards  int             `json:"shards"`
	Rows    []throughputRow `json:"rows"`
}

type throughputRow struct {
	Path        string  `json:"path"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	EdgesPerSec float64 `json:"edges_per_sec"`
	NSPerEdge   float64 `json:"ns_per_edge"`
}

// throughput measures end-to-end sampling rate over a synthetic R-MAT
// stream for the three feeding paths: per-edge Process, batched
// ProcessBatch, and the sharded Parallel sampler — once with uniform
// weights (the pure sampling hot path) and once with triangle weights (the
// topology-dependent workload the paper centres on). The stream is
// generated up front so only sampler time is measured.
func throughput(edges, sample, shards int, seed uint64) (*throughputReport, error) {
	if edges < 1 || sample < 1 || shards < 1 {
		return nil, fmt.Errorf("throughput: need positive -edges, -sample and -shards")
	}
	es, scale := rmatStream(edges, seed)
	edges = len(es)

	rep := &throughputReport{
		Schema: "gps-bench/throughput/v1", Scale: scale, Edges: edges, SampleM: sample, Shards: shards,
	}
	row := func(name string, run func() error) error {
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		el := time.Since(start)
		rep.Rows = append(rep.Rows, throughputRow{
			Path:        name,
			ElapsedMS:   float64(el) / float64(time.Millisecond),
			EdgesPerSec: float64(edges) / el.Seconds(),
			NSPerEdge:   float64(el.Nanoseconds()) / float64(edges),
		})
		return nil
	}

	type variant struct {
		name   string
		weight gps.WeightFunc
	}
	for _, v := range []variant{{"uniform", gps.UniformWeight}, {"triangle", gps.TriangleWeight}} {
		cfg := gps.Config{Capacity: sample, Weight: v.weight, Seed: seed}
		if err := row(v.name+"/sequential", func() error {
			s, err := gps.NewSampler(cfg)
			if err != nil {
				return err
			}
			for _, e := range es {
				s.Process(e)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := row(v.name+"/batched", func() error {
			s, err := gps.NewSampler(cfg)
			if err != nil {
				return err
			}
			for lo := 0; lo < len(es); lo += 8192 {
				hi := lo + 8192
				if hi > len(es) {
					hi = len(es)
				}
				s.ProcessBatch(es[lo:hi])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := row(fmt.Sprintf("%s/parallel-%d", v.name, shards), func() error {
			p, err := gps.NewParallel(cfg, shards)
			if err != nil {
				return err
			}
			defer p.Close()
			p.ProcessBatch(es)
			_, err = p.Merge()
			return err
		}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// renderThroughput is the human-readable form of the throughput report.
func renderThroughput(rep *throughputReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream: R-MAT scale %d, %d edges; m=%d, P=%d\n\n", rep.Scale, rep.Edges, rep.SampleM, rep.Shards)
	fmt.Fprintf(&b, "%-28s %12s %14s\n", "path", "elapsed", "edges/sec")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-28s %11.0fms %14.0f\n", r.Path, r.ElapsedMS, r.EdgesPerSec)
	}
	return b.String()
}

// rmatStream generates a permuted R-MAT stream of (up to) the requested
// length, choosing the scale so the generator can supply it.
func rmatStream(edges int, seed uint64) ([]graph.Edge, int) {
	scale := 10
	for (1<<scale)*16 < edges {
		scale++
	}
	all := gen.RMAT(scale, 16, 0.57, 0.19, 0.19, seed)
	if len(all) < edges {
		edges = len(all)
	}
	return stream.Collect(stream.Permute(all, seed^0x7EA))[:edges], scale
}

// serveBench runs the live-service experiment: a gps-serve instance (in
// process, real HTTP over a loopback listener) ingests a binary-framed
// R-MAT stream at full speed while query clients hammer /v1/estimate with
// a 100ms staleness bound. It reports the sustained ingest rate, the query
// throughput and client-observed latency percentiles, and the cost of a
// forced-fresh snapshot at the end of the stream.
func serveBench(edges, sample, shards, clients int, seed uint64) (string, error) {
	if edges < 1 || sample < 1 || shards < 1 || clients < 1 {
		return "", fmt.Errorf("serve: need positive -edges, -sample, -shards and -clients")
	}
	es, scale := rmatStream(edges, seed)
	edges = len(es)

	srv, err := serve.NewServer(serve.Config{
		Capacity:     sample,
		Weight:       gps.TriangleWeight,
		WeightName:   "triangle",
		Seed:         seed,
		Shards:       shards,
		QueueDepth:   64,
		MaxStaleness: 100 * time.Millisecond,
	})
	if err != nil {
		return "", err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-encode the ingest bodies so the measurement is service time, not
	// client-side encoding.
	const batch = 8192
	var bodies [][]byte
	for lo := 0; lo < edges; lo += batch {
		hi := lo + batch
		if hi > edges {
			hi = edges
		}
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, es[lo:hi]); err != nil {
			return "", err
		}
		bodies = append(bodies, buf.Bytes())
	}

	type clientStats struct {
		lat     []time.Duration
		queries int
		errs    int
	}
	done := make(chan struct{})
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(cs *clientStats) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				start := time.Now()
				resp, err := http.Get(ts.URL + "/v1/estimate")
				if err != nil {
					cs.errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				cs.lat = append(cs.lat, time.Since(start))
				cs.queries++
			}
		}(&stats[c])
	}

	var retries503 int
	ingest := func(body []byte) error {
		for {
			resp, err := http.Post(ts.URL+"/v1/ingest", stream.BinaryContentType, bytes.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				return nil
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				return fmt.Errorf("ingest status %d", resp.StatusCode)
			}
			retries503++
			time.Sleep(time.Millisecond)
		}
	}
	flush := func() error {
		resp, err := http.Post(ts.URL+"/v1/flush", "", nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	ingestStart := time.Now()
	for _, body := range bodies {
		if err := ingest(body); err != nil {
			close(done)
			return "", err
		}
	}
	// Drain the queue so the rate covers sampling, not just enqueueing.
	if err := flush(); err != nil {
		close(done)
		return "", err
	}
	ingestElapsed := time.Since(ingestStart)
	close(done)
	wg.Wait()

	// Forced-fresh estimate: snapshot + merge + Alg 2. On the idle stream
	// a max_stale=0s query is a snapshot-cache hit, so one more batch of
	// edges new to the stream (a path over nodes past the R-MAT range)
	// dirties the shards first, and the engine's snapshot counter in
	// /v1/stats confirms the timed query took a fresh snapshot.
	tail := make([]graph.Edge, batch)
	for i := range tail {
		tail[i] = graph.NewEdge(graph.NodeID(1<<scale+i), graph.NodeID(1<<scale+i+1))
	}
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, tail); err != nil {
		return "", err
	}
	if err := ingest(buf.Bytes()); err != nil {
		return "", err
	}
	if err := flush(); err != nil {
		return "", err
	}
	before, err := fetchStats(ts.URL)
	if err != nil {
		return "", err
	}
	freshStart := time.Now()
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	freshElapsed := time.Since(freshStart)
	after, err := fetchStats(ts.URL)
	if err != nil {
		return "", err
	}
	if after.Snapshots <= before.Snapshots || after.ShardsCloned <= before.ShardsCloned {
		return "", fmt.Errorf("serve: forced-fresh query took no fresh snapshot (snapshots %d -> %d, shards cloned %d -> %d)",
			before.Snapshots, after.Snapshots, before.ShardsCloned, after.ShardsCloned)
	}

	var all []time.Duration
	queries, errs := 0, 0
	for i := range stats {
		all = append(all, stats[i].lat...)
		queries += stats[i].queries
		errs += stats[i].errs
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "stream: R-MAT scale %d, %d edges; m=%d, P=%d shards, %d query clients, staleness 100ms\n\n",
		scale, edges, sample, shards, clients)
	fmt.Fprintf(&b, "ingest:  %d edges in %s  =  %.0f edges/sec  (%d batches, %d backpressure retries)\n",
		edges, ingestElapsed.Round(time.Millisecond), float64(edges)/ingestElapsed.Seconds(), len(bodies), retries503)
	fmt.Fprintf(&b, "queries: %d total (%d errors) during ingest  =  %.0f queries/sec\n",
		queries, errs, float64(queries)/ingestElapsed.Seconds())
	fmt.Fprintf(&b, "query latency: p50 %s   p90 %s   p99 %s   max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Fprintf(&b, "forced-fresh estimate (snapshot + merge + Alg 2) after one more %d-edge batch: %s  (%d shards cloned)\n",
		batch, freshElapsed.Round(time.Microsecond), after.ShardsCloned-before.ShardsCloned)
	return b.String(), nil
}

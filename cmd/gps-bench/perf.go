package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"gps"
	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/experiments"
	"gps/internal/graph"
)

// perfReport is the machine-readable perf snapshot written to
// BENCH_PR*.json by scripts/bench.sh: per-edge update costs and the
// engine snapshot stalls under the three dirtiness regimes, among the
// rows below. Every field is a single number so CI runs can be diffed
// over time.
type perfReport struct {
	Schema    string `json:"schema"`
	Edges     int    `json:"edges"`
	SampleM   int    `json:"m"`
	Shards    int    `json:"shards"`
	Seed      uint64 `json:"seed"`
	GoMaxProc int    `json:"gomaxprocs"`

	// Sampling update paths, nanoseconds per edge over the full stream.
	UpdateNSPerEdge map[string]float64 `json:"update_ns_per_edge"`

	Snapshot struct {
		// Ingestion-blocked stall (barrier + clone) per dirtiness regime.
		FullStallMS   float64 `json:"full_stall_ms"`
		Dirty1StallMS float64 `json:"dirty1_stall_ms"`
		CleanStallMS  float64 `json:"clean_stall_ms"`
		// Shards cloned in the full vs the 1-dirty snapshot.
		FullCloned   uint64 `json:"full_cloned"`
		Dirty1Cloned uint64 `json:"dirty1_cloned"`
		// dirty1_stall / full_stall: the clone-work fraction of an
		// incremental refresh with 1 of P shards dirty.
		Dirty1OverFull float64 `json:"dirty1_over_full"`
	} `json:"snapshot"`

	// A forced-fresh estimate query: snapshot + Algorithm 2 on the result.
	ForcedFreshMS float64 `json:"forced_fresh_estimate_ms"`

	// Decayed sampling: per-edge cost of the forward-decay update path over
	// the same stream (timestamped by position, half-life = span/10), and
	// the decay accuracy experiment at reduced scale so the trajectory file
	// records NRMSE vs exact decayed counts alongside the perf numbers.
	DecayUpdateNSPerEdge float64                `json:"decay_update_ns_per_edge"`
	DecayAccuracy        []experiments.DecayRow `json:"decay_accuracy"`

	// DecayOverUndecayed is the forward-decay tax on the triangle-weight
	// update path: decay_update_ns_per_edge / update_ns_per_edge[triangle].
	// The decay fast path targets <= 1.5.
	DecayOverUndecayed float64 `json:"decay_over_undecayed"`

	// ProcsSweep (schema v3) is the multi-core ingest trajectory: the
	// sharded engine fed by GOMAXPROCS concurrent producers at each point
	// of the sweep, uniform and forward-decayed. Speedups are relative to
	// the sweep's first (lowest-procs) point.
	ProcsSweep []procsResult `json:"procs_sweep"`

	// ObsOverhead (schema v4) embeds the obs experiment run on both build
	// flavors and their ratios; present only when bench.sh supplied the two
	// files (-obs-instrumented / -obs-noobs). The ingest ratios are the ≤2%
	// instrumentation-overhead bar.
	ObsOverhead *obsOverhead `json:"obs_overhead,omitempty"`

	// Windowed turnstile sampling (schema v5): per-edge cost of feeding a
	// timestamped turnstile stream (inserts + lagged deletions) through the
	// pane-chain engine, the cost of one full-window query on the final
	// state, and the window accuracy experiment at reduced scale so the
	// trajectory records NRMSE vs exact in-window counts alongside the perf
	// numbers.
	WindowUpdateNSPerEdge float64                 `json:"window_update_ns_per_edge"`
	WindowQueryMS         float64                 `json:"window_query_ms"`
	WindowAccuracy        []experiments.WindowRow `json:"window_accuracy"`

	// MultiStream (schema v6) is the multi-tenant serve trajectory: one
	// server hosting 1/4/16 streams over a fixed edge and reservoir budget,
	// concurrent per-stream producers and round-robin cached queries. The
	// N=1 row is the plain single-tenant server; the later rows price the
	// tenancy machinery itself.
	MultiStream []multiStreamResult `json:"multi_stream"`
}

// obsOverhead pairs the instrumented and gps_noobs obs reports with
// instrumented/noobs ratios per measured path (1.00 = free).
type obsOverhead struct {
	Instrumented *obsReport `json:"instrumented"`
	NoObs        *obsReport `json:"noobs"`

	IngestRatio         map[string]float64 `json:"ingest_ratio"`
	CachedQueryP50Ratio float64            `json:"cached_query_p50_ratio"`
}

// procsResult is one point of the GOMAXPROCS sweep: the sharded engine's
// concurrent-producer ingest rate with that many procs (and as many
// producer goroutines), measured over the same stream as the sequential
// paths above.
type procsResult struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Producers  int `json:"producers"`

	UniformNSPerEdge   float64 `json:"parallel_uniform_ns_per_edge"`
	UniformEdgesPerSec float64 `json:"parallel_uniform_edges_per_sec"`
	UniformSpeedup     float64 `json:"uniform_speedup_vs_first"`

	DecayNSPerEdge float64 `json:"parallel_decay_ns_per_edge"`
	DecaySpeedup   float64 `json:"decay_speedup_vs_first"`

	// Cumulative producer stalls on the shard rings during the uniform +
	// decayed runs at this point (full rings → producers waited).
	RouterStalls uint64 `json:"router_stalls"`
}

// timeBest runs fn reps times and returns the fastest wall time — the
// standard way to suppress scheduler noise in a one-shot benchmark.
func timeBest(reps int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		el := time.Since(start)
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perfBench builds the perf report on a synthetic R-MAT stream. procs is
// the GOMAXPROCS sweep for the concurrent-ingest trajectory (empty skips
// the sweep).
func perfBench(edges, sample, shards int, seed uint64, procs []int) (*perfReport, error) {
	if edges < 1 || sample < 1 || shards < 1 {
		return nil, fmt.Errorf("perf: need positive -edges, -sample and -shards")
	}
	es, _ := rmatStream(edges, seed)
	edges = len(es)
	r := &perfReport{
		Schema:          "gps-bench/perf/v6",
		Edges:           edges,
		SampleM:         sample,
		Shards:          shards,
		Seed:            seed,
		GoMaxProc:       runtime.GOMAXPROCS(0),
		UpdateNSPerEdge: map[string]float64{},
	}

	// Update paths: full-stream sequential sampling per weight, plus the
	// in-stream estimator (Algorithm 3's combined estimate+update cost).
	nsPerEdge := func(run func() error) (float64, error) {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Nanoseconds()) / float64(edges), nil
	}
	for _, v := range []struct {
		name   string
		weight gps.WeightFunc
	}{{"uniform", gps.UniformWeight}, {"triangle", gps.TriangleWeight}, {"adjacency", gps.AdjacencyWeight}} {
		n, err := nsPerEdge(func() error {
			s, err := gps.NewSampler(gps.Config{Capacity: sample, Weight: v.weight, Seed: seed})
			if err != nil {
				return err
			}
			s.ProcessBatch(es)
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.UpdateNSPerEdge[v.name] = n
	}
	n, err := nsPerEdge(func() error {
		in, err := gps.NewInStream(gps.Config{Capacity: sample, Weight: gps.TriangleWeight, Seed: seed})
		if err != nil {
			return err
		}
		for _, e := range es {
			in.Process(e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.UpdateNSPerEdge["instream_triangle"] = n

	// Snapshot stalls: full (first snapshot, all shards dirty), clean
	// (nothing ingested since), and 1-of-P dirty (traffic confined to one
	// shard). Stall is the ingestion-blocked window reported by the engine,
	// not the merge that follows it.
	p, err := gps.NewParallel(gps.Config{Capacity: sample, Seed: seed}, shards)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	p.ProcessBatch(es)
	if _, err := p.Snapshot(); err != nil {
		return nil, err
	}
	_, cloned0, _ := p.SnapshotStats()
	r.Snapshot.FullStallMS = ms(p.LastSnapshotStall())
	r.Snapshot.FullCloned = cloned0

	if _, err := p.Snapshot(); err != nil {
		return nil, err
	}
	r.Snapshot.CleanStallMS = ms(p.LastSnapshotStall())

	var targeted []graph.Edge
	for _, e := range es {
		if p.ShardOf(e) == 0 {
			targeted = append(targeted, e)
			if len(targeted) == 20000 {
				break
			}
		}
	}
	p.ProcessBatch(targeted) // duplicates: dirties shard 0 only
	_, clonedBefore, _ := p.SnapshotStats()
	if _, err := p.Snapshot(); err != nil {
		return nil, err
	}
	_, clonedAfter, _ := p.SnapshotStats()
	r.Snapshot.Dirty1StallMS = ms(p.LastSnapshotStall())
	r.Snapshot.Dirty1Cloned = clonedAfter - clonedBefore
	if r.Snapshot.FullStallMS > 0 {
		r.Snapshot.Dirty1OverFull = r.Snapshot.Dirty1StallMS / r.Snapshot.FullStallMS
	}

	// Forced-fresh query: what a ?max_stale=0 estimate costs end to end
	// (minus HTTP) — snapshot plus Algorithm 2 over the merged sampler.
	forced := timeBest(2, func() {
		snap, err := p.Snapshot()
		if err == nil {
			core.EstimatePost(snap)
		}
	})
	r.ForcedFreshMS = ms(forced)

	// Forward-decay update path: the same stream stamped by position, with
	// triangle weights and half-life span/10 (≈ the last tenth "warm").
	timed := make([]graph.Edge, len(es))
	for i, e := range es {
		timed[i] = e.At(uint64(i + 1))
	}
	n, err = nsPerEdge(func() error {
		s, err := gps.NewSampler(gps.Config{
			Capacity: sample, Weight: gps.TriangleWeight, Seed: seed,
			Decay: gps.Decay{HalfLife: float64(len(timed)) / 10},
		})
		if err != nil {
			return err
		}
		s.ProcessBatch(timed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.DecayUpdateNSPerEdge = n
	if tri := r.UpdateNSPerEdge["triangle"]; tri > 0 {
		r.DecayOverUndecayed = n / tri
	}

	// Multi-core trajectory: concurrent producers into the sharded engine
	// at each GOMAXPROCS point, uniform and decayed.
	sweep, err := procsSweep(es, timed, sample, shards, seed, procs)
	if err != nil {
		return nil, err
	}
	r.ProcsSweep = sweep

	// Decay accuracy at reduced scale: enough to track the NRMSE trajectory
	// without dominating the bench run.
	rows, err := experiments.DecayAccuracy(
		experiments.Options{Trials: 2, Seed: seed},
		experiments.DecayConfig{Nodes: 10000, HalfLifeFracs: []float64{0.1},
			SampleSizes: []int{4000}, Shards: shards})
	if err != nil {
		return nil, err
	}
	r.DecayAccuracy = rows

	// Windowed turnstile path: the timestamped stream with a lagged deletion
	// every 8th record, through the pane chain (window span/4, pane
	// span/16), plus the cost of one full-window merge-and-estimate query on
	// the final state.
	lag := len(timed) / 5
	turn := make([]graph.Edge, 0, len(timed)+len(timed)/8)
	for i, e := range timed {
		turn = append(turn, e)
		if i%8 == 3 && i >= lag {
			turn = append(turn, timed[i-lag].At(e.TS).AsDeletion())
		}
	}
	span := uint64(len(timed))
	w, err := engine.NewWindowed(engine.WindowConfig{
		Capacity: sample, Seed: seed, Shards: shards,
		PaneWidth: max(span/16, 1), Window: max(span/4, 1),
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := w.ProcessBatch(turn); err != nil {
		w.Close()
		return nil, err
	}
	w.Arrivals() // barrier: the shard drain is part of the measured window
	r.WindowUpdateNSPerEdge = float64(time.Since(start).Nanoseconds()) / float64(len(turn))
	qStart := time.Now()
	if _, err := w.Estimate(0); err != nil {
		w.Close()
		return nil, err
	}
	r.WindowQueryMS = ms(time.Since(qStart))
	w.Close()

	// Window accuracy at reduced scale, mirroring the decay trajectory rows.
	wrows, err := experiments.WindowAccuracy(
		experiments.Options{Trials: 2, Seed: seed},
		experiments.WindowConfig{Nodes: 10000, WindowFracs: []float64{0.25},
			SampleSizes: []int{4000}, Shards: shards})
	if err != nil {
		return nil, err
	}
	r.WindowAccuracy = wrows

	// Multi-tenant serve trajectory at 1/4/16 streams over a capped stream
	// (the serve path is m- and HTTP-bound, so the full edge budget would
	// only stretch the run without moving the per-edge numbers).
	msample := sample
	if msample > 20000 {
		msample = 20000
	}
	mrows, err := multiStreamBench(es, msample, shards, seed, []int{1, 4, 16})
	if err != nil {
		return nil, err
	}
	r.MultiStream = mrows
	return r, nil
}

// procsSweep measures concurrent-producer ingest through the sharded
// engine at each GOMAXPROCS point, restoring the ambient setting when done.
// Producer count tracks the procs point: the sweep answers "what does this
// engine sustain when the host actually has N cores to offer".
func procsSweep(es, timed []graph.Edge, sample, shards int, seed uint64, procs []int) ([]procsResult, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	halfLife := float64(len(timed)) / 10
	var out []procsResult
	for _, np := range procs {
		if np < 1 {
			return nil, fmt.Errorf("perf: -procs entries must be positive, got %d", np)
		}
		runtime.GOMAXPROCS(np)
		uni, uniStalls, err := bestIngest(es, gps.Config{Capacity: sample, Seed: seed}, shards, np)
		if err != nil {
			return nil, err
		}
		dec, decStalls, err := bestIngest(timed, gps.Config{
			Capacity: sample, Seed: seed, Decay: gps.Decay{HalfLife: halfLife},
		}, shards, np)
		if err != nil {
			return nil, err
		}
		pr := procsResult{
			GoMaxProcs:         np,
			Producers:          np,
			UniformNSPerEdge:   uni,
			UniformEdgesPerSec: 1e9 / uni,
			UniformSpeedup:     1,
			DecayNSPerEdge:     dec,
			DecaySpeedup:       1,
			RouterStalls:       uniStalls + decStalls,
		}
		if len(out) > 0 {
			pr.UniformSpeedup = out[0].UniformNSPerEdge / uni
			pr.DecaySpeedup = out[0].DecayNSPerEdge / dec
		}
		out = append(out, pr)
	}
	return out, nil
}

// bestIngest runs ingestParallel twice and keeps the faster wall time (and
// that run's stalls), the usual noise-suppression for one-shot benches.
func bestIngest(es []graph.Edge, cfg gps.Config, shards, producers int) (float64, uint64, error) {
	best, bestStalls := 0.0, uint64(0)
	for rep := 0; rep < 2; rep++ {
		ns, stalls, err := ingestParallel(es, cfg, shards, producers)
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || ns < best {
			best, bestStalls = ns, stalls
		}
	}
	return best, bestStalls, nil
}

// ingestParallel feeds the stream to a fresh sharded engine from the given
// number of concurrent producers (contiguous stripes, 8192-edge batches)
// and returns the wall ns/edge of ingest-through-drain plus the router
// stalls (full-ring producer waits) the run accumulated.
func ingestParallel(es []graph.Edge, cfg gps.Config, shards, producers int) (float64, uint64, error) {
	p, err := gps.NewParallel(cfg, shards)
	if err != nil {
		return 0, 0, err
	}
	defer p.Close()
	stripe := (len(es) + producers - 1) / producers
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		lo := i * stripe
		if lo >= len(es) {
			break
		}
		hi := lo + stripe
		if hi > len(es) {
			hi = len(es)
		}
		wg.Add(1)
		go func(part []graph.Edge) {
			defer wg.Done()
			for o := 0; o < len(part); o += 8192 {
				h := o + 8192
				if h > len(part) {
					h = len(part)
				}
				p.ProcessBatch(part[o:h])
			}
		}(es[lo:hi])
	}
	wg.Wait()
	p.Arrivals() // barrier: the drain is part of the measured window
	el := time.Since(start)
	return float64(el.Nanoseconds()) / float64(len(es)), p.RingStats().Stalls, nil
}

// renderPerf is the human-readable form of the report.
func renderPerf(r *perfReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream: %d edges; m=%d, P=%d shards, GOMAXPROCS=%d\n\n", r.Edges, r.SampleM, r.Shards, r.GoMaxProc)
	fmt.Fprintf(&b, "update paths (ns/edge):\n")
	for _, k := range []string{"uniform", "triangle", "adjacency", "instream_triangle"} {
		fmt.Fprintf(&b, "  %-20s %8.0f\n", k, r.UpdateNSPerEdge[k])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "snapshot stall: full %.2fms (%d clones)   1-dirty %.2fms (%d clone, %.2fx of full)   clean %.2fms\n",
		r.Snapshot.FullStallMS, r.Snapshot.FullCloned,
		r.Snapshot.Dirty1StallMS, r.Snapshot.Dirty1Cloned, r.Snapshot.Dirty1OverFull,
		r.Snapshot.CleanStallMS)
	fmt.Fprintf(&b, "forced-fresh estimate (snapshot + Alg 2): %.1fms\n", r.ForcedFreshMS)
	fmt.Fprintf(&b, "decayed update path (triangle weight, half-life span/10): %.0f ns/edge  (%.2fx undecayed)\n",
		r.DecayUpdateNSPerEdge, r.DecayOverUndecayed)
	if len(r.ProcsSweep) > 0 {
		fmt.Fprintf(&b, "\nmulti-core ingest (P=%d shards, concurrent producers = procs):\n", r.Shards)
		fmt.Fprintf(&b, "  %-6s %-5s %14s %12s %14s %12s %8s\n",
			"procs", "prod", "uniform ns/e", "speedup", "decayed ns/e", "speedup", "stalls")
		for _, pr := range r.ProcsSweep {
			fmt.Fprintf(&b, "  %-6d %-5d %14.0f %11.2fx %14.0f %11.2fx %8d\n",
				pr.GoMaxProcs, pr.Producers, pr.UniformNSPerEdge, pr.UniformSpeedup,
				pr.DecayNSPerEdge, pr.DecaySpeedup, pr.RouterStalls)
		}
	}
	for _, row := range r.DecayAccuracy {
		fmt.Fprintf(&b, "decay accuracy: half-life %.2f·span m=%d %-18s NRMSE %.4f\n",
			row.HalfLifeFrac, row.M, row.Motif, row.NRMSE)
	}
	fmt.Fprintf(&b, "windowed turnstile ingest (pane chain, window span/4): %.0f ns/edge; full-window query %.1fms\n",
		r.WindowUpdateNSPerEdge, r.WindowQueryMS)
	for _, row := range r.WindowAccuracy {
		fmt.Fprintf(&b, "window accuracy: window %.2f·span m=%d %-10s NRMSE %.4f\n",
			row.WindowFrac, row.M, row.Motif, row.NRMSE)
	}
	if len(r.MultiStream) > 0 {
		fmt.Fprintf(&b, "\nmulti-tenant serve (fixed edge/reservoir budget split across streams):\n")
		fmt.Fprintf(&b, "  %-8s %14s %18s %18s\n", "streams", "ingest ns/e", "cached q p50 µs", "p99 µs")
		for _, row := range r.MultiStream {
			fmt.Fprintf(&b, "  %-8d %14.0f %18.0f %18.0f\n",
				row.Streams, row.IngestNSPerEdge, row.CachedQueryP50US, row.CachedQueryP99US)
		}
	}
	if oh := r.ObsOverhead; oh != nil {
		fmt.Fprintf(&b, "\nobservability overhead (instrumented / gps_noobs):\n")
		for _, k := range []string{"uniform", "triangle", "decayed"} {
			fmt.Fprintf(&b, "  ingest %-10s %6.0f / %6.0f ns/edge  = %.3fx\n",
				k, oh.Instrumented.IngestNSPerEdge[k], oh.NoObs.IngestNSPerEdge[k], oh.IngestRatio[k])
		}
		fmt.Fprintf(&b, "  cached query p50  %6.0f / %6.0f µs       = %.3fx\n",
			oh.Instrumented.CachedQueryP50US, oh.NoObs.CachedQueryP50US, oh.CachedQueryP50Ratio)
	}
	return b.String()
}

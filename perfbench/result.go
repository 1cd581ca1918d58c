package main

import (
	"debug/buildinfo"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result assembles the result line: end-to-end metrics on untraced runs,
// per-layer metrics on traced ones.
func (r *run) result() *result {
	res := &result{Correct: r.failed == 0, Attempted: max(1, r.attempted), Failed: r.failed}
	if r.tr != nil {
		res.Metrics = r.layers
	} else {
		res.Metrics = r.endToEnd()
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run whose operations failed leaves a statistic
			// undefined; JSON cannot carry NaN, and the run is not correct.
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	return res
}

// endToEnd computes the end-to-end metrics. The ingest rate and ack
// latencies are medians over the load phases of each phase's figure, so a
// burst of host interference confined to one or two phases does not decide
// them; the other timings pool their few samples per phase over the run.
func (r *run) endToEnd() map[string]metric {
	var p50s, tails []float64
	ackQ := 0.99
	for _, seg := range r.ackSegs {
		tail, q := seg.tail(0.99)
		p50s, tails, ackQ = append(p50s, seg.median()), append(tails, tail), min(ackQ, q)
	}
	qTail, qQ := r.queries.tail(0.99)
	fmt.Fprintf(os.Stderr, "perfbench: set-up medians: base graph and counts %.1f ms, probe input and counts %.1f ms, boot %.1f ms\n",
		r.setupParts[0].median(), r.setupParts[1].median(), r.setupParts[2].median())
	fmt.Fprintf(os.Stderr, "perfbench: %d ingest operations in %d phases (tail at p%.4g), %d queries (tail at p%.4g), %d set-ups\n",
		len(r.acks), len(r.ackSegs), 100*ackQ, len(r.queries), 100*qQ, len(r.setupS))
	return map[string]metric{
		"setup_s":            {medianOf(r.setupS), "s"},
		"ingest_edges_per_s": {medianOf(r.rates), "1/s"},
		"ingest_ack_p50_ms":  {medianOf(p50s), "ms"},
		"ingest_ack_p99_ms":  {medianOf(tails), "ms"},
		"query_p50_ms":       {r.queries.median(), "ms"},
		"query_p99_ms":       {qTail, "ms"},
		"checkpoint_s":       {medianOf(r.checkpointS), "s"},
		"restore_s":          {medianOf(r.restoreS), "s"},
		"server_rss_mb":      {r.rssMB, "MiB"},
		"ok_frac":            {1 - float64(r.failed)/float64(max(1, r.attempted)), "ratio"},
	}
}

// layerMetrics computes the per-layer metrics of a traced run from the
// replay, the server's /metrics scrapes and the spans.
func (r *run) layerMetrics(rp *replayed) {
	s0, s1 := r.s0, r.s1
	set := func(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }
	const ingestRoute, queryRoute = `{route="POST /v1/ingest"}`, `{route="GET /v1/estimate"}`

	set("stream.decode_ns_per_edge", rp.decodeNS, "ns")
	set("stream.wire_bytes_per_edge", float64(r.wireBytes)/float64(max(1, r.loadRecords)), "bytes")

	ingestMS, _ := histMeanMS(s0, s1, "gps_http_request_seconds", ingestRoute)
	queryMS, _ := histMeanMS(s0, s1, "gps_http_request_seconds", queryRoute)
	set("serve.ingest_handler_ms", ingestMS, "ms")
	set("serve.transport_ms", r.ingestCallMS-ingestMS, "ms")
	set("serve.query_handler_ms", queryMS, "ms")
	set("serve.query_transport_ms", r.queryCallMS-queryMS, "ms")
	set("serve.refusals_per_batch", float64(r.refusals)/float64(max(1, r.batches)), "count")
	set("serve.flush_ms", r.flushMS.median(), "ms")
	set("serve.queue_edges_max", r.queueMax, "count")
	hits := delta(s0, s1, "gps_serve_snapshot_cache_hits_total")
	set("serve.cache_hit_ratio", ratio(hits, hits+delta(s0, s1, "gps_serve_snapshot_refresh_total")), "ratio")
	set("serve.estimate_reuse", delta(s0, s1, "gps_serve_snapshot_estimate_reuse_total"), "count")

	// Engine instruments come from the server's exposition where it has them
	// (plain streams); a windowed server exports only gps_window_*, so the
	// replay engine's own exposition stands in.
	from, e0, e1 := "server", s0, s1
	if _, ok := s1["gps_engine_ring_stalls_total"]; !ok {
		from, e0, e1 = "replay", scrape{}, rp.engine
	}
	set("engine.process_ns_per_edge", rp.engineNS, "ns")
	set("engine.ring_stalls", delta(e0, e1, "gps_engine_ring_stalls_total"), "count")
	set("engine.drain_batch_edges", ratio(delta(e0, e1, "gps_engine_drain_batch_edges_sum"),
		delta(e0, e1, "gps_engine_drain_batch_edges_count")), "edges")
	stallMS, stalls := histMeanMS(e0, e1, "gps_engine_snapshot_stall_seconds", "")
	if stalls == 0 {
		stallMS = rp.stallMS
	}
	set("engine.snapshot_stall_ms", stallMS, "ms")
	barrierMS, _ := histMeanMS(e0, e1, "gps_engine_barrier_wait_seconds", "")
	set("engine.barrier_wait_ms", barrierMS, "ms")
	set("engine.snapshot_ms", rp.snapshotMS, "ms")
	set("engine.merge_ms", rp.snapshotMS-rp.stallMS, "ms")
	reused := delta(e0, e1, "gps_engine_snapshot_shards_reused_total")
	set("engine.clone_reuse_ratio", ratio(reused, reused+delta(e0, e1, "gps_engine_snapshot_shards_cloned_total")), "ratio")
	set("engine.window_process_ns_per_record", rp.windowNS, "ns")
	set("engine.window_query_ms", rp.windowQueryMS, "ms")
	set("engine.panes", rp.panes, "count")
	set("engine.checkpoint_encode_ms", rp.ckptEncodeMS, "ms")
	blobs := delta(e0, e1, "gps_engine_checkpoint_blobs_reused_total")
	set("engine.checkpoint_blob_reuse_ratio", ratio(blobs, blobs+delta(e0, e1, "gps_engine_checkpoint_shards_encoded_total")), "ratio")
	set("engine.restore_decode_ms", rp.restoreDecodeMS, "ms")
	set("checkpoint.bytes", float64(len(r.ckpt)), "bytes")

	set("core.update_ns_per_edge", rp.coreNS, "ns")
	set("core.accept_ratio", rp.acceptRatio, "ratio")
	set("core.estimate_ms", rp.estimateMS, "ms")
	set("core.deletions_applied_ratio", rp.deletionsRatio, "ratio")

	lateTail, _ := r.late.tail(0.99)
	set("loadgen.late_p99_ms", lateTail, "ms")

	// The refresh path: the layers a refreshing estimate crosses against
	// the client's latency for one, and what they leave unexplained.
	refreshMS := r.queries.median()
	sum := rp.snapshotMS + rp.estimateMS
	if r.window != nil {
		sum = rp.windowQueryMS
	}
	sum += r.layers["serve.query_transport_ms"].Value
	set("query.refresh_ms", refreshMS, "ms")
	set("query.layer_sum_ms", sum, "ms")
	set("query.unattributed_ms", refreshMS-sum, "ms")
	qTail, _ := r.queries.tail(0.99)
	fmt.Fprintf(os.Stderr, "perfbench: refresh path: layers %.3f ms vs refresh %.3f ms, unattributed %.3f ms (%.1f%%); query_p99 %.3f ms\n",
		sum, refreshMS, refreshMS-sum, 100*(refreshMS-sum)/refreshMS, qTail)

	self := r.tr.selfTimes()
	for _, mod := range []string{"loadgen", "serve", "stream", "engine", "core", "checkpoint"} {
		m := self[mod]
		set("trace."+mod+"_self_ms", float64(m.totalNS)/1e6/float64(max(1, m.spans)), "ms")
	}
	set("trace.overhead_pct", 100*(r.acksTraced.median()/r.acksUntraced.median()-1), "%")

	names := make([]string, 0, len(r.layers))
	for k := range r.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: per-layer metrics (engine counters from the %s exposition):\n", from)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, r.layers[k].Value, r.layers[k].Unit)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostBlock stamps the result with the machine and build it ran on.
func (r *run) hostBlock() map[string]any {
	_, queryQ := r.queries.tail(0.99)
	steal, total := cpuTicks()
	h := map[string]any{
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs_bench": runtime.GOMAXPROCS(0),
		// The server runs without -shards, so the shard count its boot
		// line reports is its own GOMAXPROCS.
		"gomaxprocs_server":   r.shards,
		"cpu_model":           cpuModel(),
		"go_version":          runtime.Version(),
		"build_tags":          "",
		"commit":              "unknown",
		"workload":            r.o.workload,
		"seed":                r.o.seed,
		"seconds":             r.o.seconds,
		"trace":               r.tr != nil,
		"steal_pct":           100 * ratio(float64(steal-r.steal0), float64(total-r.total0)),
		"setup_repetitions":   len(r.setupS),
		"ingest_operations":   len(r.acks),
		"query_operations":    len(r.queries),
		"query_tail_quantile": queryQ,
		"connections":         len(r.conns),
	}
	if bi, err := buildinfo.ReadFile(r.o.server); err == nil {
		h["server_go_version"] = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "-tags":
				h["build_tags"] = s.Value
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value
			}
		}
	}
	return h
}

// cpuTicks reads the machine-wide CPU time from /proc/stat: the ticks
// stolen by the hypervisor and the total.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

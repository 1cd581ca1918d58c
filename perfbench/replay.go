package main

import (
	"bytes"
	"fmt"
	"time"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// Replay sizes: the traced run replays the workload's own records through
// each layer's public functions in this process, one span per call.
const (
	replayCopies    = 4         // copies-stream edges replayed: 4 base copies
	replayRecords   = 1_200_000 // turnstile records replayed on window
	replaySnapshots = 8         // dirty-then-snapshot rounds
	replayQueries   = 5         // estimate / window-query repetitions
	replayPasses    = 3         // decode and restore-decode repetitions
)

// replayed holds what the replay measured, for the per-layer metrics.
type replayed struct {
	decodeNS        float64
	coreNS          float64
	acceptRatio     float64
	engineNS        float64
	snapshotMS      float64
	stallMS         float64
	estimateMS      float64
	ckptEncodeMS    float64
	windowNS        float64
	windowQueryMS   float64
	panes           float64
	deletionsRatio  float64
	restoreDecodeMS float64
	engine          scrape // the replay engine's own exposition
}

// records returns the workload's first records, in batches.
func (r *run) replayBatches() [][]graph.Edge {
	var recs []graph.Edge
	if r.window != nil {
		recs = newTurnstile(r.b, r.o.seed).next(nil, replayRecords+replaySnapshots*batchSize)
	} else {
		recs = r.b.appendCopies(nil, 0, replayCopies*len(r.b.edges)+replaySnapshots*batchSize)
	}
	var out [][]graph.Edge
	for lo := 0; lo < len(recs); lo += batchSize {
		out = append(out, recs[lo:min(lo+batchSize, len(recs))])
	}
	return out
}

// replay times each layer's public functions on the workload's records.
func (r *run) replay() (*replayed, error) {
	tr := r.tr
	root := tr.begin("replay", -1)
	defer tr.end(root)
	all := r.replayBatches()
	feed, extra := all[:len(all)-replaySnapshots], all[len(all)-replaySnapshots:]
	n := 0
	for _, b := range feed {
		n += len(b)
	}
	turn := r.window != nil
	weight, weightName, capacity := core.WeightFunc(core.TriangleWeight), "triangle", streamCap
	if turn {
		weight, weightName, capacity = nil, "uniform", windowCap
	}
	cfg := core.Config{Capacity: capacity, Weight: weight, Seed: r.o.seed}
	var rp replayed

	// stream: decode the encoded batches.
	bodies := make([][]byte, len(feed))
	for i, b := range feed {
		var buf bytes.Buffer
		if err := encode(&buf, b, turn); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	var passes []float64
	for p := 0; p < replayPasses; p++ {
		var err error
		d := tr.timed("stream.decode", root, func() {
			for _, body := range bodies {
				if _, _, err = stream.ReadBinaryStats(bytes.NewReader(body)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		passes = append(passes, float64(d)/float64(n))
	}
	rp.decodeNS = medianOf(passes)

	// core: one sequential sampler with the workload's weight.
	s, err := core.NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	d := tr.timed("core.process_batch", root, func() {
		for _, b := range feed {
			s.ProcessBatch(b)
		}
	})
	rp.coreNS = float64(d) / float64(n)
	if s.Arrivals() > 0 {
		rp.acceptRatio = float64(s.Accepts()) / float64(s.Arrivals())
	}

	// engine: the sharded sampler, its snapshots, estimates and checkpoints.
	p, err := engine.NewParallel(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	d = tr.timed("engine.process_batch", root, func() {
		for _, b := range feed {
			if err = p.ProcessBatch(b); err != nil {
				return
			}
		}
		p.Arrivals() // the closing barrier: every ring drained
	})
	if err != nil {
		return nil, err
	}
	rp.engineNS = float64(d) / float64(n)
	var snaps, stalls, ests []float64
	var snap *core.Sampler
	for _, b := range extra {
		if err := p.ProcessBatch(b); err != nil {
			return nil, err
		}
		d := tr.timed("engine.snapshot", root, func() { snap, err = p.Snapshot() })
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, ms(d))
		stalls = append(stalls, ms(p.LastSnapshotStall()))
	}
	rp.snapshotMS, rp.stallMS = medianOf(snaps), medianOf(stalls)
	for i := 0; i < replayQueries; i++ {
		ests = append(ests, ms(tr.timed("core.estimate_post", root, func() { core.EstimatePost(snap) })))
	}
	rp.estimateMS = medianOf(ests)
	var ck bytes.Buffer
	d = tr.timed("engine.checkpoint_encode", root, func() { _, err = p.WriteCheckpoint(&ck, weightName) })
	if err != nil {
		return nil, err
	}
	rp.ckptEncodeMS = ms(d)
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		return nil, err
	}
	if rp.engine, err = parseExposition(expo.Bytes()); err != nil {
		return nil, fmt.Errorf("replay engine: %w", err)
	}

	// engine: the windowed pane chain over the same records (untimed
	// records ride one pane).
	w, err := engine.NewWindowed(engine.WindowConfig{
		Capacity: capacity, Weight: weight, Seed: r.o.seed,
		PaneWidth: windowWidth / windowPanes, Window: windowWidth,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	d = tr.timed("engine.window_process", root, func() {
		for _, b := range feed {
			if err = w.ProcessBatch(b); err != nil {
				return
			}
		}
		w.Arrivals()
	})
	if err != nil {
		return nil, err
	}
	rp.windowNS = float64(d) / float64(n)
	var wq []float64
	for i := 0; i < replayQueries; i++ {
		d := tr.timed("engine.window_estimate", root, func() { _, err = w.Estimate(0) })
		if err != nil {
			return nil, err
		}
		wq = append(wq, ms(d))
	}
	rp.windowQueryMS = medianOf(wq)
	rp.panes = float64(w.Panes())
	if a, u := w.Deletions(); a+u > 0 {
		rp.deletionsRatio = float64(a) / float64(a+u)
	}

	// engine: decode the checkpoint the server wrote.
	var dec []float64
	for i := 0; i < replayPasses; i++ {
		var restored engine.Stream
		d := tr.timed("engine.restore_decode", root, func() {
			if turn {
				restored, _, err = engine.ReadWindowedCheckpoint(bytes.NewReader(r.ckpt), core.ResolveWeight)
			} else {
				restored, _, err = engine.ReadParallelCheckpoint(bytes.NewReader(r.ckpt), core.ResolveWeight)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("replay restore decode: %w", err)
		}
		restored.Close()
		dec = append(dec, ms(d))
	}
	rp.restoreDecodeMS = medianOf(dec)
	return &rp, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

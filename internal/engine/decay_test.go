package engine

import (
	"bytes"
	"testing"

	"gps/internal/core"
	"gps/internal/graph"
)

// timedStream stamps a deterministic test stream with event time = stream
// position offset by base, the activity-stream shape of the decay tests.
func timedStream(n int, seed uint64, base uint64) []graph.Edge {
	edges := testStream(500, n, seed)
	for i := range edges {
		edges[i].TS = base + uint64(i)
	}
	return edges
}

// TestEngineDecayLandmarkAgreement pins the per-shard landmark agreement:
// the first routed edge fixes one landmark for every shard, so the merged
// sampler carries it, priorities are mutually comparable (the merge
// accepts them), and the merged horizon is the stream's max event time.
func TestEngineDecayLandmarkAgreement(t *testing.T) {
	edges := timedStream(8000, 0xA9E, 500) // event times 500…8499
	cfg := core.Config{Capacity: 600, Weight: core.TriangleWeight, Seed: 11, Decay: core.Decay{HalfLife: 2000}}
	p, err := NewParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feedBatches(p, edges, 1024)

	if got := p.Horizon(); got != 8499 {
		t.Fatalf("engine horizon %d, want 8499", got)
	}
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if lm, set := m.DecayLandmark(); !set || lm != 500 {
		t.Fatalf("merged landmark (%d,%v), want (500,true) — the first edge's event time", lm, set)
	}
	if m.DecayHorizon() != 8499 {
		t.Fatalf("merged horizon %d, want 8499", m.DecayHorizon())
	}
	est := core.EstimatePost(m)
	if !est.Decayed || est.DecayHorizon != 8499 || est.DecayedEdges <= 0 {
		t.Fatalf("merged estimates not decayed: %+v", est)
	}
	// Snapshot agrees with Merge bit for bit under decay too.
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "decayed snapshot vs merge", snap, m)
}

// TestEngineDecayedCrashRestartEquivalence is the decayed variant of the
// crash-equivalence harness, run in both event-time modes: real timestamps
// (the decay state must survive serialization) and untimed arrival-order
// decay (the engine's event clock must resume exactly, or the restored
// run's boosts would shift by the lost prefix).
func TestEngineDecayedCrashRestartEquivalence(t *testing.T) {
	for _, mode := range []struct {
		name string
		base uint64 // 0 = untimed stream, clock-stamped by the engine
	}{{"timed", 1000}, {"untimed", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			var edges []graph.Edge
			if mode.base == 0 {
				edges = testStream(500, 20000, 0xDEC)
			} else {
				edges = timedStream(20000, 0xDEC, mode.base)
			}
			const batch = 1000
			cfg := core.Config{Capacity: 800, Weight: core.TriangleWeight, Seed: 0xD06, Decay: core.Decay{HalfLife: 5000}}

			full, err := NewParallel(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			feedBatches(full, edges, batch)
			mFull, err := full.Merge()
			if err != nil {
				t.Fatal(err)
			}

			interrupted, err := NewParallel(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer interrupted.Close()
			cut := len(edges) / 2 / batch * batch
			feedBatches(interrupted, edges[:cut], batch)
			doc := engineCheckpoint(t, interrupted, "triangle")
			if doc[4] != 2 {
				t.Fatalf("decayed engine checkpoint version %d, want 2", doc[4])
			}

			// The survivor finishes unperturbed.
			feedBatches(interrupted, edges[cut:], batch)
			mSurv, err := interrupted.Merge()
			if err != nil {
				t.Fatal(err)
			}
			requireSameSignature(t, "survivor vs uninterrupted", mSurv, mFull)

			// The restored engine finishes bit-identically too.
			restored := restoreEngine(t, doc)
			defer restored.Close()
			if restored.Decay() != cfg.Decay {
				t.Fatalf("restored decay %+v, want %+v", restored.Decay(), cfg.Decay)
			}
			feedBatches(restored, edges[cut:], batch)
			mRest, err := restored.Merge()
			if err != nil {
				t.Fatal(err)
			}
			requireSameSignature(t, "restored vs uninterrupted", mRest, mFull)
			if core.EstimatePost(mRest) != core.EstimatePost(mFull) {
				t.Fatal("decayed estimates diverge after restore")
			}

			// checkpoint → restore → checkpoint reproduces the bytes.
			again := engineCheckpoint(t, restoreEngine(t, doc), "triangle")
			if !bytes.Equal(doc, again) {
				t.Fatal("engine checkpoint bytes not idempotent under decay")
			}
		})
	}
}

// TestEngineUndecayedCheckpointStaysV1 pins the version gate from the
// engine side: no decay, no version bump, so pre-decay readers of the
// format see unchanged bytes.
func TestEngineUndecayedCheckpointStaysV1(t *testing.T) {
	p, err := NewParallel(core.Config{Capacity: 100, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(testStream(100, 500, 0x11))
	doc := engineCheckpoint(t, p, "uniform")
	if doc[4] != 1 {
		t.Fatalf("undecayed engine checkpoint version %d, want 1", doc[4])
	}
}

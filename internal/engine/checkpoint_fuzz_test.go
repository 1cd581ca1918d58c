package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gps/internal/core"
)

// FuzzEngineCheckpointDecoder exercises the engine container decoder with
// arbitrary input: it must never panic, never allocate from a forged shard
// count (shards materialize only as their blobs actually parse), and any
// accepted document must describe a working engine — pinned by
// re-checkpointing it and decoding the result.
func FuzzEngineCheckpointDecoder(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("GPSC\x01\x02"))
	f.Add([]byte("GPSC\x01\x01"))
	// Real engine checkpoints as seeds: empty, and mid-stream at two shard
	// counts.
	for _, tc := range []struct {
		shards   int
		edges    int
		halfLife float64
		timed    bool
	}{{1, 0, 0, false}, {2, 3000, 0, false}, {4, 3000, 0, false},
		{2, 3000, 500, true}, {4, 3000, 800, false}} { // v2 seeds: timed + arrival-order decay
		p, err := NewParallel(core.Config{Capacity: 200, Seed: 13,
			Decay: core.Decay{HalfLife: tc.halfLife}}, tc.shards)
		if err != nil {
			f.Fatal(err)
		}
		if tc.edges > 0 {
			es := testStream(400, tc.edges, 0xF5)
			if tc.timed {
				for i := range es {
					es[i].TS = uint64(10 + i)
				}
			}
			p.ProcessBatch(es)
		}
		var buf bytes.Buffer
		if _, err := p.WriteCheckpoint(&buf, "uniform"); err != nil {
			f.Fatal(err)
		}
		p.Close()
		f.Add(buf.Bytes())
	}

	// GPSC window-document seeds: a windowed run with rotated panes and
	// turnstile deletions plus a fresh one (Version4, per-shard pane
	// chains), and the committed Version3 fixture of the earlier
	// pane-of-engines layout, which restores through the legacy reader.
	f.Add([]byte("GPSC\x03\x04"))
	f.Add([]byte("GPSC\x04\x04"))
	legacy, err := os.ReadFile(filepath.Join("testdata", "window_v3.gpsc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	for _, rotated := range []bool{false, true} {
		w, err := NewWindowed(WindowConfig{Capacity: 64, Seed: 31, Shards: 2, PaneWidth: 50, Window: 150})
		if err != nil {
			f.Fatal(err)
		}
		if rotated {
			es := testStream(200, 1200, 0xAB)
			for i := range es {
				es[i].TS = uint64(10 + i)
				if i%9 == 7 {
					es[i] = es[i-2].At(es[i].TS).AsDeletion()
				}
			}
			if err := w.ProcessBatch(es); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := w.WriteCheckpoint(&buf, "uniform"); err != nil {
			f.Fatal(err)
		}
		w.Close()
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		if p, _, err := ReadParallelCheckpoint(bytes.NewReader(input), nil); err == nil {
			var buf bytes.Buffer
			if _, err := p.WriteCheckpoint(&buf, "w"); err != nil {
				t.Fatalf("re-encode of accepted engine document: %v", err)
			}
			again, _, err := ReadParallelCheckpoint(&buf, func(string) (core.WeightFunc, error) { return nil, nil })
			if err != nil {
				t.Fatalf("re-decode of accepted engine document: %v", err)
			}
			if again.Shards() != p.Shards() || again.Capacity() != p.Capacity() ||
				again.Processed() != p.Processed() {
				t.Fatal("round trip changed engine state")
			}
			again.Close()
			p.Close()
		}
		if w, _, err := ReadWindowedCheckpoint(bytes.NewReader(input), nil); err == nil {
			var buf bytes.Buffer
			if _, err := w.WriteCheckpoint(&buf, "w"); err != nil {
				t.Fatalf("re-encode of accepted window document: %v", err)
			}
			again, _, err := ReadWindowedCheckpoint(&buf, func(string) (core.WeightFunc, error) { return nil, nil })
			if err != nil {
				t.Fatalf("re-decode of accepted window document: %v", err)
			}
			if again.Panes() != w.Panes() || again.Processed() != w.Processed() ||
				again.Horizon() != w.Horizon() {
				t.Fatal("round trip changed window state")
			}
			again.Close()
			w.Close()
		}
	})
}

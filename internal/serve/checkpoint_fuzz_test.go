package serve

import (
	"bufio"
	"bytes"
	"testing"

	"gps/internal/graph"
)

// FuzzMultiCheckpointDecoder exercises restoreMulti, the decoder of the
// multi-stream checkpoint container, with arbitrary input: it must never
// panic, and any container it accepts must re-encode through
// writeMultiCheckpoint into one that restores the same streams.
func FuzzMultiCheckpointDecoder(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("GPSC\x03\x05"))
	// A real two-stream container: a plain stream and a windowed turnstile
	// stream whose panes have rotated and taken deletions.
	plain, err := newTenant(defaultStream, Config{Capacity: 64, Seed: 3, Shards: 2, WeightName: "uniform"})
	if err != nil {
		f.Fatal(err)
	}
	win, err := newTenant("win", Config{Capacity: 48, Seed: 5, Shards: 2, WeightName: "uniform", Window: 150, PaneWidth: 50})
	if err != nil {
		f.Fatal(err)
	}
	var edges, records []graph.Edge
	for i := 0; i < 400; i++ {
		e := graph.NewEdgeAt(graph.NodeID(i%37), graph.NodeID(37+i%53), uint64(i+1))
		edges = append(edges, e)
		records = append(records, e)
		if i%9 == 8 {
			records = append(records, edges[i-6].At(e.TS).AsDeletion())
		}
	}
	if err := plain.eng.ProcessBatch(edges); err != nil {
		f.Fatal(err)
	}
	if err := win.eng.ProcessBatch(records); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := writeMultiCheckpoint(&seed, []*tenant{plain, win}); err != nil {
		f.Fatal(err)
	}
	plain.eng.Close()
	win.eng.Close()
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, input []byte) {
		tenants, err := restoreMulti(bufio.NewReader(bytes.NewReader(input)), Config{})
		if err != nil {
			return
		}
		defer func() {
			for _, tn := range tenants {
				tn.eng.Close()
			}
		}()
		var buf bytes.Buffer
		if _, err := writeMultiCheckpoint(&buf, tenants); err != nil {
			t.Fatalf("re-encode of an accepted container: %v", err)
		}
		again, err := restoreMulti(bufio.NewReader(&buf), Config{})
		if err != nil {
			t.Fatalf("re-decode of an accepted container: %v", err)
		}
		defer func() {
			for _, tn := range again {
				tn.eng.Close()
			}
		}()
		if len(again) != len(tenants) {
			t.Fatalf("round trip restored %d streams, want %d", len(again), len(tenants))
		}
		for i, a := range tenants {
			b := again[i]
			if a.name != b.name || a.windowed() != b.windowed() || a.cfg.Capacity != b.cfg.Capacity ||
				a.cfg.Shards != b.cfg.Shards || a.cfg.Window != b.cfg.Window ||
				a.eng.Processed() != b.eng.Processed() || a.eng.Panes() != b.eng.Panes() {
				t.Fatalf("round trip changed stream %q", a.name)
			}
		}
	})
}

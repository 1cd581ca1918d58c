package engine

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/randx"
)

// mergedState reduces a Merge result to its GPSC serialization — the
// strongest equality available: reservoir membership, weights, priorities,
// covariance accumulators, heap order, threshold, counters and RNG state
// all land in the bytes, so two equal serializations are samplers that will
// evolve bit-identically forever.
func mergedState(t *testing.T, p *Parallel) []byte {
	t.Helper()
	m, err := p.Merge()
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, "test"); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestBatchGroupingMatchesPerEdgeRouting is the router's bit-exactness
// contract: one engine fed through ProcessBatch with randomized batch sizes
// (through a deliberately tiny ring, so appends wrap and chunk) must be
// bit-identical to a twin fed the same stream one edge at a time — same
// merged reservoir, weights, priorities, threshold — with interleaved
// barriers (Arrivals, Snapshot) not disturbing either.
func TestBatchGroupingMatchesPerEdgeRouting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		decay core.Decay
	}{
		{"undecayed", core.Decay{}},
		{"decayed", core.Decay{HalfLife: 5000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := testStream(3000, 12000, 0x71)
			cfg := core.Config{Capacity: 500, Weight: core.TriangleWeight, Seed: 0xBEEF, Decay: tc.decay}

			batched, err := newParallel(cfg, 4, 64, nil) // tiny ring: forces wraparound and chunked appends
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			perEdge, err := NewParallel(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer perEdge.Close()

			rng := randx.New(0x1234)
			for off := 0; off < len(edges); {
				n := int(rng.Uint64() % 200) // includes 0 (empty batch) and > ring capacity
				if off+n > len(edges) {
					n = len(edges) - off
				}
				batched.ProcessBatch(edges[off : off+n])
				off += n
				if rng.Uint64()%16 == 0 {
					batched.Arrivals() // barrier mid-stream
				}
				if rng.Uint64()%32 == 0 {
					if _, err := batched.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, e := range edges {
				perEdge.Process(e)
			}

			if got, want := mergedState(t, batched), mergedState(t, perEdge); !bytes.Equal(got, want) {
				t.Fatalf("batched routing merged state (%d bytes) differs from per-edge routing (%d bytes)",
					len(got), len(want))
			}
		})
	}
}

// TestConcurrentShardDisjointProducersDeterministic pins the concurrency
// contract: producers whose edge sets route to disjoint shards may feed the
// engine concurrently and the result is still bit-identical to one
// producer feeding the whole stream in order (per-shard order is stream
// order either way). Runs with decay too — with an explicit landmark and
// pre-stamped event times the decayed run is equally order-insensitive.
// With -race this doubles as the router's data-race suite.
func TestConcurrentShardDisjointProducersDeterministic(t *testing.T) {
	const shards = 4
	edges := testStream(2500, 10000, 0x99)
	for _, tc := range []struct {
		name  string
		decay core.Decay
		stamp bool
	}{
		{"undecayed", core.Decay{}, false},
		{"decayed", core.Decay{HalfLife: 4000, Landmark: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := edges
			if tc.stamp {
				stream = make([]graph.Edge, len(edges))
				copy(stream, edges)
				for i := range stream {
					stream[i].TS = uint64(i + 1)
				}
			}
			cfg := core.Config{Capacity: 400, Seed: 0xD00D, Decay: tc.decay}

			sequential, err := NewParallel(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer sequential.Close()
			sequential.ProcessBatch(stream)
			want := mergedState(t, sequential)

			concurrent, err := newParallel(cfg, shards, 128, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer concurrent.Close()
			// Partition by owning shard, preserving stream order per shard.
			parts := make([][]graph.Edge, shards)
			for _, e := range stream {
				s := concurrent.ShardOf(e)
				parts[s] = append(parts[s], e)
			}
			var wg sync.WaitGroup
			for pi, part := range parts {
				wg.Add(1)
				go func(pi int, part []graph.Edge) {
					defer wg.Done()
					rng := randx.New(uint64(pi) * 7779)
					for off := 0; off < len(part); {
						n := 1 + int(rng.Uint64()%300)
						if off+n > len(part) {
							n = len(part) - off
						}
						concurrent.ProcessBatch(part[off : off+n])
						off += n
					}
				}(pi, part)
			}
			wg.Wait()

			if got := mergedState(t, concurrent); !bytes.Equal(got, want) {
				t.Fatalf("concurrent shard-disjoint producers merged state differs from sequential feeding")
			}
		})
	}
}

// TestRingOrderAndWraparound drives a tiny ring directly: every appended
// edge must come out exactly once, in append order, across wraparounds and
// chunked oversized batches.
func TestRingOrderAndWraparound(t *testing.T) {
	r := newRing(16)
	var got []graph.Edge
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.consume(func(es []graph.Edge) {
			got = append(got, es...)
			time.Sleep(50 * time.Microsecond) // keep the ring filling up
		})
	}()
	const n = 1000
	rng := randx.New(42)
	var sent []graph.Edge
	for i := 0; len(sent) < n; i++ {
		batch := make([]graph.Edge, 1+rng.Uint64()%40) // often larger than the ring
		for j := range batch {
			e := graph.Edge{U: graph.NodeID(len(sent) + j + 1), V: graph.NodeID(len(sent) + j + 2)}
			batch[j] = e
		}
		sent = append(sent, batch...)
		r.append(batch)
	}
	r.drainWait()
	if d := r.depth(); d != 0 {
		t.Fatalf("depth %d after drainWait", d)
	}
	r.close()
	<-done
	if len(got) != len(sent) {
		t.Fatalf("consumed %d edges, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("edge %d: got %v, want %v", i, got[i], sent[i])
		}
	}
	if r.stalls.Load() == 0 {
		t.Error("expected producer stalls on a 16-slot ring under a slow consumer")
	}
}

// TestRingCapacityValidation pins the power-of-two requirement.
func TestRingCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 24, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newRing(%d) did not panic", bad)
				}
			}()
			newRing(bad)
		}()
	}
	newRing(1)
	newRing(1 << 10)
}

// TestRingStatsGauges checks the monitoring surface: after a barrier the
// backlog is zero, epochs cover every routed edge, and a tiny-ring engine
// under load reports producer stalls.
func TestRingStatsGauges(t *testing.T) {
	cfg := core.Config{Capacity: 200, Seed: 7}
	p, err := newParallel(cfg, 4, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	edges := testStream(1500, 6000, 0x31)
	p.ProcessBatch(edges)
	arrivals := p.Arrivals() // barrier
	st := p.RingStats()
	if st.Capacity != 32 {
		t.Errorf("Capacity = %d, want 32", st.Capacity)
	}
	if st.Backlog != 0 {
		t.Errorf("Backlog = %d after barrier, want 0", st.Backlog)
	}
	var routed uint64
	for _, e := range st.Epochs {
		routed += e
	}
	if routed != uint64(len(edges)) {
		t.Errorf("epochs sum %d, want %d routed edges", routed, len(edges))
	}
	if arrivals > uint64(len(edges)) {
		t.Errorf("arrivals %d exceeds routed edges %d", arrivals, len(edges))
	}
	if len(st.Depths) != 4 || len(st.Epochs) != 4 {
		t.Errorf("expected 4 shard gauges, got %d/%d", len(st.Depths), len(st.Epochs))
	}
}

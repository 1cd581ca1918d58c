package core

import (
	"slices"
	"testing"

	"gps/internal/order"
	"gps/internal/randx"
)

// TestProcessBatchMatchesProcess verifies the exact-equivalence contract of
// ProcessBatch: feeding the stream in batches of any size must reproduce
// the edge-by-edge sampler bit for bit — same reservoir entries, same
// threshold, same arrival counts — because batching only amortizes call
// overhead, it never reorders RNG draws or sampling decisions.
func TestProcessBatchMatchesProcess(t *testing.T) {
	stream := goldenStream()
	for _, weight := range []struct {
		name string
		fn   WeightFunc
	}{{"uniform", UniformWeight}, {"triangle", TriangleWeight}} {
		for _, batch := range []int{1, 7, 64, 1000, len(stream)} {
			seq, err := NewSampler(Config{Capacity: 500, Weight: weight.fn, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewSampler(Config{Capacity: 500, Weight: weight.fn, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			seqKept := 0
			for _, e := range stream {
				if seq.Process(e) {
					seqKept++
				}
			}
			batKept := 0
			for lo := 0; lo < len(stream); lo += batch {
				hi := lo + batch
				if hi > len(stream) {
					hi = len(stream)
				}
				batKept += bat.ProcessBatch(stream[lo:hi])
			}
			if got, want := fingerprint(bat), fingerprint(seq); got != want {
				t.Errorf("%s/batch=%d: fingerprint %#x != sequential %#x", weight.name, batch, got, want)
			}
			if batKept != seqKept {
				t.Errorf("%s/batch=%d: kept %d edges, sequential kept %d", weight.name, batch, batKept, seqKept)
			}
		}
	}
}

// TestMergeIsExactTopM checks the priority-sampling merge identity on
// concrete shard reservoirs: the merged sampler must hold exactly the
// Capacity highest-priority entries of the shard union, and its threshold
// must be the maximum of the shard thresholds and every priority the merge
// discarded.
func TestMergeIsExactTopM(t *testing.T) {
	stream := goldenStream()
	const shards = 4
	const capacity = 300

	// Partition the stream by edge key, mimicking the engine's routing.
	parts := make([][]int, shards) // indices into stream
	for i, e := range stream {
		parts[e.Key()%shards] = append(parts[e.Key()%shards], i)
	}
	samplers := make([]*Sampler, shards)
	for p := range samplers {
		s, err := NewSampler(Config{Capacity: capacity, Seed: uint64(p + 1)})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range parts[p] {
			s.Process(stream[i])
		}
		samplers[p] = s
	}

	// Brute-force reference: all shard entries sorted by priority.
	var union []order.Entry
	wantZ := 0.0
	for _, s := range samplers {
		if s.Threshold() > wantZ {
			wantZ = s.Threshold()
		}
		for i := 0; i < s.res.Len(); i++ {
			union = append(union, *s.res.heap.At(i))
		}
	}
	if len(union) <= capacity {
		t.Fatalf("test needs an overflowing union, got %d entries", len(union))
	}
	// Selection sort of the top boundary is overkill; sort fully.
	for i := range union {
		for j := i + 1; j < len(union); j++ {
			if union[j].Priority > union[i].Priority {
				union[i], union[j] = union[j], union[i]
			}
		}
	}
	wantTop := map[uint64]bool{}
	for _, ent := range union[:capacity] {
		wantTop[ent.Edge.Key()] = true
	}
	for _, ent := range union[capacity:] {
		if ent.Priority > wantZ {
			wantZ = ent.Priority
		}
	}

	merged, err := Merge(samplers, Config{Capacity: capacity, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if merged.res.Len() != capacity {
		t.Fatalf("merged Len = %d, want %d", merged.res.Len(), capacity)
	}
	for i := 0; i < merged.res.Len(); i++ {
		ent := merged.res.heap.At(i)
		if !wantTop[ent.Edge.Key()] {
			t.Errorf("merged sample holds %v, not in the top-%d of the union", ent.Edge, capacity)
		}
	}
	if merged.Threshold() != wantZ {
		t.Errorf("merged threshold = %v, want %v", merged.Threshold(), wantZ)
	}
	var wantArrivals uint64
	for _, s := range samplers {
		wantArrivals += s.Arrivals()
	}
	if merged.Arrivals() != wantArrivals {
		t.Errorf("merged arrivals = %d, want %d", merged.Arrivals(), wantArrivals)
	}
}

// TestMergeSingleAndErrors covers the degenerate merge inputs.
func TestMergeSingleAndErrors(t *testing.T) {
	if _, err := Merge(nil, Config{Capacity: 5}); err == nil {
		t.Error("Merge(nil) did not error")
	}
	s, _ := NewSampler(Config{Capacity: 5, Seed: 1})
	if _, err := Merge([]*Sampler{s}, Config{Capacity: 0}); err == nil {
		t.Error("Merge with invalid config did not error")
	}
	rng := randx.New(3)
	for i := 0; i < 50; i++ {
		s.Process(goldenStream()[rng.Intn(1000)])
	}
	m, err := Merge([]*Sampler{s}, Config{Capacity: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.res.Len() != s.res.Len() && m.res.Len() != 5 {
		t.Errorf("single-shard merge Len = %d", m.res.Len())
	}
	if m.Threshold() < s.Threshold() {
		t.Errorf("merged threshold %v below shard threshold %v", m.Threshold(), s.Threshold())
	}
}

// TestSelectFirst checks the merge's selection against a full sort: c[:k]
// must hold exactly the k first candidates in merge order, for random,
// presorted, reversed and all-equal-priority inputs and every kind of k.
func TestSelectFirst(t *testing.T) {
	rng := randx.New(11)
	shapes := map[string]func(i, n int) float64{
		"random":   func(int, int) float64 { return rng.Float64() },
		"sorted":   func(i, _ int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"equal":    func(int, int) float64 { return 1 },
	}
	for name, prio := range shapes {
		for _, n := range []int{1, 2, 17, 100, 3000} {
			c := make([]mergeCand, n)
			for i := range c {
				c[i] = mergeCand{prio(i, n), uint64(rng.Intn(n/2 + 1)), int32(rng.Intn(3)), int32(i)}
			}
			want := slices.Clone(c)
			slices.SortFunc(want, mergeCand.cmp)
			for _, k := range []int{1, n / 3, n - 1, n} {
				if k < 1 {
					continue
				}
				got := slices.Clone(c)
				selectFirst(got, k)
				slices.SortFunc(got[:k], mergeCand.cmp)
				if !slices.Equal(got[:k], want[:k]) {
					t.Fatalf("%s n=%d k=%d: selected set differs from the sorted prefix", name, n, k)
				}
			}
		}
	}
}

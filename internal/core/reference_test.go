package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/order"
	"gps/internal/stream"
)

// This file pins the slot-indexed estimation fast path against the
// hash-lookup reference implementations, bit for bit: identical enumeration
// and summation order means exact float64 equality, not tolerance. The
// references are the estimation path that predates the slot-indexed one:
// every enumerated neighbor and triangle edge resolves its stored weight
// through the reservoir's open-addressing hash index (Reservoir.entry)
// instead of the adjacency slot runs, with the same parallelFor chunking as
// the fast-path counterparts.

// estimateLocalPostLookup mirrors EstimateLocalPost through the hash index.
func estimateLocalPostLookup(s *Sampler) LocalTriangles {
	n := s.res.Len()
	workers := estimateWorkers(n)
	parts := make([]LocalTriangles, workers)
	parallelFor(n, workers, func(w, lo, hi int) {
		local := make(LocalTriangles)
		for i := lo; i < hi; i++ {
			k := s.res.heap.At(i).Edge
			ent := s.res.entry(k)
			invQ := 1 / s.probForWeight(ent.Weight)
			v1, v2 := k.U, k.V
			if s.res.Degree(v1) > s.res.Degree(v2) {
				v1, v2 = v2, v1
			}
			s.res.Neighbors(v1, func(v3 graph.NodeID) bool {
				if v3 == v2 {
					return true
				}
				e2 := s.res.entry(graph.NewEdge(v2, v3))
				if e2 == nil {
					return true
				}
				q1 := s.mustProb(v1, v3)
				q2 := s.probForWeight(e2.Weight)
				share := invQ / (q1 * q2) / 3
				local[v1] += share
				local[v2] += share
				local[v3] += share
				return true
			})
		}
		parts[w] = local
	})
	out := make(LocalTriangles)
	for _, part := range parts {
		for v, c := range part {
			out[v] += c
		}
	}
	return out
}

// estimateCliques4PostLookup mirrors EstimateCliques4Post through the hash
// index.
func estimateCliques4PostLookup(s *Sampler) float64 {
	n := s.res.Len()
	workers := estimateWorkers(n)
	totals := make([]float64, workers)
	parallelFor(n, workers, func(w, lo, hi int) {
		total := 0.0
		for i := lo; i < hi; i++ {
			k := s.res.heap.At(i).Edge
			u, v := k.U, k.V
			invQ := 1 / s.mustProb(u, v)
			var candidates []graph.NodeID
			s.res.CommonNeighbors(u, v, func(x graph.NodeID) bool {
				if x > v {
					candidates = append(candidates, x)
				}
				return true
			})
			if len(candidates) < 2 {
				continue
			}
			// Per-edge subtotal first, then fold into the chunk total —
			// the same summation grouping as cliques4At, which the
			// bit-exactness of the comparison depends on.
			edgeTotal := 0.0
			for i := 0; i < len(candidates); i++ {
				x := candidates[i]
				invW := 1 / (s.mustProb(u, x) * s.mustProb(v, x))
				for j := i + 1; j < len(candidates); j++ {
					y := candidates[j]
					ent := s.res.entry(graph.NewEdge(x, y))
					if ent == nil {
						continue
					}
					invX := 1 / (s.mustProb(u, y) * s.mustProb(v, y))
					edgeTotal += invQ * invW * invX / s.probForWeight(ent.Weight)
				}
			}
			total += edgeTotal
		}
		totals[w] = total
	})
	total := 0.0
	for _, t := range totals {
		total += t
	}
	return total
}

// estimateStars3PostLookup mirrors EstimateStars3Post through the hash
// index, with the same dense-id chunking.
func estimateStars3PostLookup(s *Sampler) float64 {
	n := s.res.adj.DenseLen()
	workers := estimateWorkers(n)
	totals := make([]float64, workers)
	parallelFor(n, workers, func(w, lo, hi int) {
		total := 0.0
		for id := lo; id < hi; id++ {
			v, nbrs, _ := s.res.adj.RunAt(id)
			if len(nbrs) == 0 {
				continue
			}
			var p1, p2, p3 float64
			for _, u := range nbrs {
				inv := 1 / s.mustProb(v, u)
				p1 += inv
				inv2 := inv * inv
				p2 += inv2
				p3 += inv2 * inv
			}
			total += (p1*p1*p1 - 3*p1*p2 + 2*p3) / 6
		}
		totals[w] = total
	})
	total := 0.0
	for _, t := range totals {
		total += t
	}
	return total
}

// subgraphEstimateLookup mirrors SubgraphEstimate through InclusionProb.
func subgraphEstimateLookup(s *Sampler, edges ...graph.Edge) float64 {
	prod := 1.0
	for i, e := range edges {
		if containsBefore(edges, i, e) {
			continue
		}
		q, ok := s.InclusionProb(e)
		if !ok {
			return 0
		}
		prod /= q
	}
	return prod
}

// referenceSampler builds a partial-reservoir sampler over the golden
// clustered stream so thresholds are active and probabilities are < 1.
func referenceSampler(t *testing.T, weight WeightFunc, seed uint64) *Sampler {
	t.Helper()
	s, err := NewSampler(Config{Capacity: 2000, Weight: weight, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenStream() {
		s.Process(e)
	}
	if s.Threshold() == 0 {
		t.Fatal("reference sampler never overflowed; test needs q < 1")
	}
	return s
}

// TestSlotPathBitExactVsLookup is the tentpole's lock: every estimator on
// the slot-indexed fast path returns exactly — bit for bit — what the
// hash-lookup path returns, for every built-in weight function.
func TestSlotPathBitExactVsLookup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight WeightFunc
	}{{"uniform", UniformWeight}, {"triangle", TriangleWeight}, {"adjacency", AdjacencyWeight}} {
		t.Run(tc.name, func(t *testing.T) {
			s := referenceSampler(t, tc.weight, 0xD5)

			if got, want := EstimatePost(s), estimatePostLookup(s); got != want {
				t.Errorf("EstimatePost diverges from lookup path:\n slot:   %+v\n lookup: %+v", got, want)
			}

			slotLocal, lookLocal := EstimateLocalPost(s), estimateLocalPostLookup(s)
			if len(slotLocal) != len(lookLocal) {
				t.Fatalf("local triangle maps differ in size: %d vs %d", len(slotLocal), len(lookLocal))
			}
			for v, c := range lookLocal {
				if slotLocal[v] != c {
					t.Fatalf("local triangles at node %d: slot %v vs lookup %v", v, slotLocal[v], c)
				}
			}

			if got, want := EstimateCliques4Post(s), estimateCliques4PostLookup(s); got != want {
				t.Errorf("EstimateCliques4Post: slot %v vs lookup %v", got, want)
			}
			if got, want := EstimateStars3Post(s), estimateStars3PostLookup(s); got != want {
				t.Errorf("EstimateStars3Post: slot %v vs lookup %v", got, want)
			}

			// Subgraph estimates across sampled triangles, sampled edges and
			// absent edges.
			count := 0
			s.Reservoir().ForEachEdge(func(e graph.Edge) bool {
				if got, want := s.SubgraphEstimate(e), subgraphEstimateLookup(s, e); got != want {
					t.Fatalf("SubgraphEstimate(%v): slot %v vs lookup %v", e, got, want)
				}
				s.Reservoir().CommonNeighbors(e.U, e.V, func(w graph.NodeID) bool {
					tri := []graph.Edge{e, graph.NewEdge(e.U, w), graph.NewEdge(e.V, w)}
					if got, want := s.SubgraphEstimate(tri...), subgraphEstimateLookup(s, tri...); got != want {
						t.Fatalf("SubgraphEstimate(%v): slot %v vs lookup %v", tri, got, want)
					}
					return true
				})
				count++
				return count < 500
			})
			if got := s.SubgraphEstimate(graph.NewEdge(1<<20, 1<<20+1)); got != 0 {
				t.Errorf("absent-edge subgraph estimate = %v, want 0", got)
			}
		})
	}
}

// TestSlotPathBitExactMidStream re-checks EstimatePost equality at several
// positions along the stream, including before the reservoir first
// overflows (z* = 0, all probabilities 1).
func TestSlotPathBitExactMidStream(t *testing.T) {
	edges := stream.Collect(stream.Permute(goldenStream(), 0xFACE))
	s, err := NewSampler(Config{Capacity: 1500, Weight: TriangleWeight, Seed: 0xA1})
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{100: true, 1500: true, 4000: true, len(edges): true}
	for i, e := range edges {
		s.Process(e)
		if cuts[i+1] {
			if got, want := EstimatePost(s), estimatePostLookup(s); got != want {
				t.Fatalf("at %d edges: slot %+v vs lookup %+v", i+1, got, want)
			}
		}
	}
}

// estimatePostLookup is the hash-lookup reference implementation of
// EstimatePost. For any sampler state and fixed GOMAXPROCS it returns a
// result bit-identical to EstimatePost, at the cost of one hash probe per
// enumerated neighbor and per triangle membership test.
func estimatePostLookup(s *Sampler) Estimates {
	n := s.res.Len()
	workers := estimateWorkers(n)
	parts := make([]partial, workers)
	parallelFor(n, workers, func(w, lo, hi int) {
		var local partial
		for i := lo; i < hi; i++ {
			local.add(s.estimateEdgeLookup(s.res.heap.At(i).Edge))
		}
		parts[w] = local
	})
	return reduceEstimates(parts, n, s.arrivals)
}

// estimateEdgeLookup is estimateEdge resolving probabilities through the
// hash index. The loop structure mirrors the pre-slot-path implementation.
func (s *Sampler) estimateEdgeLookup(k graph.Edge) edgeTotals {
	var t edgeTotals
	q := 1.0
	if ent := s.res.entry(k); ent != nil {
		q = s.probForWeight(ent.Weight)
	}
	invQ := 1 / q

	v1, v2 := k.U, k.V
	if s.res.Degree(v1) > s.res.Degree(v2) {
		v1, v2 = v2, v1
	}

	var cTriPairs float64
	var cWPairs float64
	var aK, bK, dK float64
	var subWedge float64

	s.res.Neighbors(v1, func(v3 graph.NodeID) bool {
		if v3 == v2 {
			return true
		}
		q1 := s.mustProb(v1, v3)
		if e2 := s.res.entry(graph.NewEdge(v2, v3)); e2 != nil {
			q2 := s.probForWeight(e2.Weight)
			inv12 := 1 / (q1 * q2)
			invAll := invQ * inv12
			t.nTri += invAll
			t.vTri += invAll * (invAll - 1)
			t.cTri += cTriPairs * inv12
			cTriPairs += inv12
			aK += inv12
			dK += inv12 * (1/q1 + 1/q2)
			subWedge += invAll * (inv12 - 1)
		}
		invW := invQ / q1
		t.nW += invW
		t.vW += invW * (invW - 1)
		t.cW += cWPairs / q1
		cWPairs += 1 / q1
		bK += 1 / q1
		return true
	})
	s.res.Neighbors(v2, func(v3 graph.NodeID) bool {
		if v3 == v1 {
			return true
		}
		q2 := s.mustProb(v2, v3)
		invW := invQ / q2
		t.nW += invW
		t.vW += invW * (invW - 1)
		t.cW += cWPairs / q2
		cWPairs += 1 / q2
		bK += 1 / q2
		return true
	})

	scale := 2 * invQ * (invQ - 1)
	t.cTri *= scale
	t.cW *= scale
	t.covTW = invQ*(invQ-1)*(aK*bK-dK) + subWedge
	return t
}

// mustProb returns the inclusion probability of the sampled edge {a,b} via
// the hash index. The reference scans only present pairs that are edges of
// the reservoir adjacency, so a missing heap entry means the reservoir
// invariants are broken and panicking early is the right failure mode.
func (s *Sampler) mustProb(a, b graph.NodeID) float64 {
	ent := s.res.entry(graph.NewEdge(a, b))
	if ent == nil {
		panic("core: adjacency lists edge " + graph.NewEdge(a, b).String() + " missing from heap")
	}
	return s.probForWeight(ent.Weight)
}

// entry returns the heap record of edge e, or nil when not sampled — the
// hash-probing lookup the slot-indexed estimation path exists to avoid. The
// pointer is invalidated by the next insert/evict.
func (r *Reservoir) entry(e graph.Edge) *order.Entry { return r.heap.Get(e.Key()) }

// mergeReference is the incremental merge that predates the select-then-
// build one: a total sort of every kept entry, then one heap push and one
// adjacency insertion per admitted edge. MergeFiltered must return exactly
// — heap layout, dense ids, threshold and counters — what it returns.
func mergeReference(samplers []*Sampler, cfg Config, keep func(i int, e graph.Edge) bool) (*Sampler, error) {
	if len(samplers) == 0 {
		return nil, errors.New("core: Merge requires at least one sampler")
	}
	m, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range samplers {
		if s.decay != cfg.Decay {
			return nil, fmt.Errorf("core: Merge decay config %+v disagrees with sampler's %+v", cfg.Decay, s.decay)
		}
		if s.landmarkSet {
			if !m.landmarkSet {
				m.landmark, m.landmarkSet = s.landmark, true
			} else if m.landmark != s.landmark {
				return nil, fmt.Errorf("core: Merge landmark disagreement: %d vs %d (shards must share the decay landmark)",
					m.landmark, s.landmark)
			}
		}
		if s.lastTS > m.lastTS {
			m.lastTS = s.lastTS
		}
	}

	total := 0
	for _, s := range samplers {
		total += s.res.Len()
		if s.zstar > m.zstar {
			m.zstar = s.zstar
		}
		m.arrivals += s.arrivals
		m.duplicates += s.duplicates
		m.delApplied += s.delApplied
		m.delUnsampled += s.delUnsampled
		m.accepts += s.accepts
		m.evicts += s.evicts
	}
	entries := make([]order.Entry, 0, total)
	for si, s := range samplers {
		for i := 0; i < s.res.Len(); i++ {
			ent := s.res.heap.At(i)
			if keep != nil && !keep(si, ent.Edge) {
				continue
			}
			entries = append(entries, *ent)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Priority != entries[j].Priority {
			return entries[i].Priority > entries[j].Priority
		}
		return entries[i].Edge.Key() < entries[j].Edge.Key()
	})

	for _, ent := range entries {
		if m.res.Len() < cfg.Capacity && !m.res.Contains(ent.Edge) {
			m.res.insert(ent)
			continue
		}
		if obs.Enabled {
			m.evicts++
		}
		if ent.Priority > m.zstar {
			m.zstar = ent.Priority
		}
	}
	return m, nil
}

// mergeInputs builds one sampler per part of edges, edge i going to part
// route(i), part p seeded seed+p.
func mergeInputs(t *testing.T, cfg Config, parts int, edges []graph.Edge, route func(i int, e graph.Edge) []int) []*Sampler {
	t.Helper()
	out := make([]*Sampler, parts)
	for p := range out {
		c := cfg
		c.Seed = cfg.Seed + uint64(p)
		s, err := NewSampler(c)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = s
	}
	for i, e := range edges {
		for _, p := range route(i, e) {
			out[p].Process(e)
		}
	}
	return out
}

// byKey routes every edge to one of parts inputs by edge key, as the
// engine's hash partitioning does: the inputs hold disjoint edge sets.
func byKey(parts int) func(int, graph.Edge) []int {
	return func(_ int, e graph.Edge) []int { return []int{int(e.Key() % uint64(parts))} }
}

// craftedSampler returns a sampler holding exactly the given entries, with
// threshold z — inputs no stream would produce, such as equal priorities.
func craftedSampler(t *testing.T, z float64, ents ...order.Entry) *Sampler {
	t.Helper()
	s, err := NewSampler(Config{Capacity: max(len(ents), 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		s.res.insert(ent)
	}
	s.zstar = z
	return s
}

// requireIdenticalState fails unless got and want hold the same heap arena,
// free list and heap order, the same dense adjacency, threshold, counters
// and decay state, and the same Algorithm 2 output bit for bit.
func requireIdenticalState(t *testing.T, got, want *Sampler) {
	t.Helper()
	ga, gf, gh := got.res.heap.ExportState()
	wa, wf, wh := want.res.heap.ExportState()
	if !slices.Equal(ga, wa) || !slices.Equal(gf, wf) || !slices.Equal(gh, wh) {
		t.Fatalf("heap state differs: arena %d/%d, freed %v/%v, heap order equal %v",
			len(ga), len(wa), gf, wf, slices.Equal(gh, wh))
	}
	gn, gfr, gnb, gsl := got.res.adj.ExportDense()
	wn, wfr, wnb, wsl := want.res.adj.ExportDense()
	if !slices.Equal(gn, wn) || !slices.Equal(gfr, wfr) || len(gnb) != len(wnb) || len(gsl) != len(wsl) {
		t.Fatalf("dense tables differ: %d/%d nodes, freed %v/%v", len(gn), len(wn), gfr, wfr)
	}
	for id := range wnb {
		if !slices.Equal(gnb[id], wnb[id]) || !slices.Equal(gsl[id], wsl[id]) {
			t.Fatalf("dense id %d: run %v slots %v, want %v slots %v", id, gnb[id], gsl[id], wnb[id], wsl[id])
		}
	}
	if got.res.adj.NumEdges() != want.res.adj.NumEdges() {
		t.Fatalf("adjacency edges %d, want %d", got.res.adj.NumEdges(), want.res.adj.NumEdges())
	}
	type state struct {
		zstar                                 float64
		arrivals, duplicates, applied, unsamp uint64
		accepts, evicts, landmark, lastTS     uint64
		landmarkSet                           bool
	}
	snap := func(s *Sampler) state {
		return state{s.zstar, s.arrivals, s.duplicates, s.delApplied, s.delUnsampled,
			s.accepts, s.evicts, s.landmark, s.lastTS, s.landmarkSet}
	}
	if g, w := snap(got), snap(want); g != w || math.Float64bits(g.zstar) != math.Float64bits(w.zstar) {
		t.Fatalf("sampler state %+v, want %+v", g, w)
	}
	if g, w := EstimatePost(got), EstimatePost(want); g != w {
		t.Fatalf("EstimatePost %+v, want %+v", g, w)
	}
}

// TestMergeMatchesReference pins the select-then-build merge to the
// incremental reference on every input shape the merge distinguishes, then
// keeps sampling both results and requires them to stay identical: the
// bulk-built adjacency runs share backing arrays, so an in-place append
// that overran a run would surface here.
func TestMergeMatchesReference(t *testing.T) {
	stream := goldenStream()
	timed := timedGoldenStream()
	e := func(u, v graph.NodeID, prio float64) order.Entry {
		return order.Entry{Edge: graph.NewEdge(u, v), Weight: 1, Priority: prio}
	}
	// Overlapping substreams: edges 2000..2999 reach both inputs, each
	// with its own priority draw, so many keys are held twice.
	overlap := func(i int, _ graph.Edge) []int {
		switch {
		case i < 2000:
			return []int{0}
		case i < 3000:
			return []int{0, 1}
		}
		return []int{1}
	}
	dropThirds := func(_ int, e graph.Edge) bool { return e.Key()%3 != 0 }
	// Recurring edges: 4095 distinct edges, every one held by all 8 inputs
	// (as by window panes the edge was inserted into again), merged at
	// capacity 4096 — duplicates leave slots free after the first
	// Capacity candidates, and every remaining candidate must be walked.
	path := make([]graph.Edge, 4095)
	for i := range path {
		path[i] = graph.NewEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	everyInput := func(int, graph.Edge) []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }
	cases := []struct {
		name   string
		inputs func(t *testing.T) []*Sampler
		cfg    Config
		keep   func(int, graph.Edge) bool
	}{
		{"uniform", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 300, Seed: 1}, 4, stream, byKey(4))
		}, Config{Capacity: 300, Seed: 9}, nil},
		{"triangle", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 1200, Weight: TriangleWeight, Seed: 3}, 2, stream, byKey(2))
		}, Config{Capacity: 2000, Weight: TriangleWeight, Seed: 9}, nil},
		{"decayed", func(t *testing.T) []*Sampler {
			cfg := Config{Capacity: 500, Weight: TriangleWeight, Seed: 5, Decay: Decay{HalfLife: 4000, Landmark: 1}}
			return mergeInputs(t, cfg, 3, timed, byKey(3))
		}, Config{Capacity: 1000, Weight: TriangleWeight, Seed: 9, Decay: Decay{HalfLife: 4000, Landmark: 1}}, nil},
		{"keep", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 600, Seed: 7}, 3, stream, byKey(3))
		}, Config{Capacity: 800, Seed: 9}, dropThirds},
		{"exact", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 300, Weight: TriangleWeight, Seed: 2}, 4, stream, byKey(4))
		}, Config{Capacity: 5000, Weight: TriangleWeight, Seed: 9}, nil},
		{"capacity1", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 50, Seed: 4}, 2, stream, byKey(2))
		}, Config{Capacity: 1, Seed: 9}, nil},
		{"equal-priorities", func(t *testing.T) []*Sampler {
			return []*Sampler{
				craftedSampler(t, 1, e(5, 9, 2), e(1, 2, 3), e(7, 8, 2), e(2, 3, 2)),
				craftedSampler(t, 1.5, e(1, 9, 2), e(3, 4, 3), e(2, 9, 2), e(4, 5, 1.5)),
			}
		}, Config{Capacity: 5, Seed: 9}, nil},
		{"one-edge-twice", func(t *testing.T) []*Sampler {
			return []*Sampler{
				craftedSampler(t, 1, e(1, 2, 4), e(2, 3, 3), e(3, 4, 2)),
				craftedSampler(t, 1, e(2, 3, 5), e(4, 5, 2.5), e(5, 6, 1.2)),
			}
		}, Config{Capacity: 3, Seed: 9}, nil},
		{"overlapping-inputs", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 800, Weight: TriangleWeight, Seed: 6}, 2, stream, overlap)
		}, Config{Capacity: 1200, Weight: TriangleWeight, Seed: 9}, nil},
		{"recurring-edges", func(t *testing.T) []*Sampler {
			return mergeInputs(t, Config{Capacity: 4095, Seed: 8}, 8, path, everyInput)
		}, Config{Capacity: 4096, Seed: 9}, nil},
	}
	// More stream for the merged samplers: new edges among the same nodes,
	// a few repeats of golden edges, and deletions of sampled ones.
	extra := gen.HolmeKim(4000, 4, 0.4, 0xE7A)
	extra = append(extra, stream[:200]...)
	for tsi, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.inputs(t)
			got, err := MergeFiltered(inputs, tc.cfg, tc.keep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mergeReference(inputs, tc.cfg, tc.keep)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalState(t, got, want)

			ts := uint64(len(timed))
			for i, x := range extra {
				if tc.cfg.Decay.Enabled() {
					ts++
					x = x.At(ts)
				}
				if i%7 == tsi%7 && want.res.Len() > 0 {
					x = want.res.heap.At(i % want.res.Len()).Edge.AsDeletion()
				}
				got.Process(x)
				want.Process(x)
			}
			if fg, fw := fingerprint(got), fingerprint(want); fg != fw {
				t.Fatalf("after more stream: fingerprint %#x, want %#x", fg, fw)
			}
			requireIdenticalState(t, got, want)
		})
	}
}

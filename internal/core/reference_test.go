package core

import (
	"testing"

	"gps/internal/graph"
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

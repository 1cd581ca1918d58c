package graph

import (
	"slices"
	"testing"
)

// buildTestEdges returns distinct edges over scattered node ids with one
// hub (node 5) of degree about 150, in a scrambled order so runs arrive
// unsorted.
func buildTestEdges() []Edge {
	seen := map[uint64]bool{}
	var edges []Edge
	add := func(a, b NodeID) {
		if a == b {
			return
		}
		e := NewEdge(a, b)
		if !seen[e.Key()] {
			seen[e.Key()] = true
			edges = append(edges, e)
		}
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) NodeID {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return NodeID(x % n)
	}
	for i := 0; i < 600; i++ {
		add(next(400)*7919%100003, next(400)*7919%100003)
		if i%4 == 0 {
			add(5, next(100003))
		}
	}
	return edges
}

// sequentialAdjacency is the reference BuildAdjacency must reproduce: one
// AddWithSlot per edge, slot = index.
func sequentialAdjacency(edges []Edge) *Adjacency {
	a := NewAdjacency()
	for i, e := range edges {
		a.AddWithSlot(e, int32(i))
	}
	return a
}

func requireSameDense(t *testing.T, got, want *Adjacency) {
	t.Helper()
	gn, gf, gnb, gsl := got.ExportDense()
	wn, wf, wnb, wsl := want.ExportDense()
	if !slices.Equal(gn, wn) || !slices.Equal(gf, wf) || len(gnb) != len(wnb) || len(gsl) != len(wsl) {
		t.Fatalf("dense tables differ: nodes %v vs %v, freed %v vs %v", gn, wn, gf, wf)
	}
	for id := range wnb {
		if !slices.Equal(gnb[id], wnb[id]) || !slices.Equal(gsl[id], wsl[id]) {
			t.Fatalf("dense id %d: %v/%v, want %v/%v", id, gnb[id], gsl[id], wnb[id], wsl[id])
		}
	}
	if got.NumEdges() != want.NumEdges() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("%d edges %d nodes, want %d and %d", got.NumEdges(), got.NumNodes(), want.NumEdges(), want.NumNodes())
	}
}

// TestBuildAdjacencyMatchesSequential pins the bulk constructor to
// sequential AddWithSlot — dense ids, sorted runs and slot annotations —
// checks its output passes RestoreAdjacency's validation, and keeps
// mutating both to show the shared backing array cannot leak between runs.
func TestBuildAdjacencyMatchesSequential(t *testing.T) {
	edges := buildTestEdges()
	want := sequentialAdjacency(edges)
	got := BuildAdjacency(len(edges), func(slot int32) Edge { return edges[slot] })
	if d := got.Degree(5); d < 100 {
		t.Fatalf("hub degree %d, want a run of at least 100", d)
	}
	requireSameDense(t, got, want)

	for id := 0; id < got.DenseLen(); id++ {
		_, run, sl := got.RunAt(id)
		if cap(run) != len(run) || cap(sl) != len(sl) {
			t.Fatalf("dense id %d: run cap %d/%d, slot cap %d/%d", id, cap(run), len(run), cap(sl), len(sl))
		}
	}
	if _, err := RestoreAdjacency(exportDenseCopy(got)); err != nil {
		t.Fatalf("bulk-built adjacency fails restore validation: %v", err)
	}

	// Grow, shrink and regrow runs in the middle of the shared backing.
	for i, e := range edges {
		switch i % 3 {
		case 0:
			got.Remove(e)
			want.Remove(e)
		case 1:
			f := NewEdge(e.U, e.V+100003)
			got.AddWithSlot(f, int32(1000+i))
			want.AddWithSlot(f, int32(1000+i))
		}
	}
	requireSameDense(t, got, want)
	if _, err := RestoreAdjacency(exportDenseCopy(got)); err != nil {
		t.Fatalf("mutated adjacency fails restore validation: %v", err)
	}
}

func TestBuildAdjacencyEmpty(t *testing.T) {
	a := BuildAdjacency(0, func(int32) Edge { panic("no edges") })
	if a.NumEdges() != 0 || a.NumNodes() != 0 || a.DenseLen() != 0 {
		t.Fatalf("empty build: %d edges, %d nodes, %d ids", a.NumEdges(), a.NumNodes(), a.DenseLen())
	}
	if !a.Add(NewEdge(1, 2)) || !a.Has(NewEdge(1, 2)) {
		t.Fatal("empty build does not accept edges")
	}
}

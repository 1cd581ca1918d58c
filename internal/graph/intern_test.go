package graph

import (
	"slices"
	"strings"
	"testing"

	"gps/internal/randx"
)

// checkAgainstModel asserts that a stores exactly the model's edges, with
// their slot annotations, seen through every node of the pool.
func checkAgainstModel(t *testing.T, what string, a *Adjacency, model map[Edge]int32, pool []NodeID) {
	t.Helper()
	if a.NumEdges() != len(model) {
		t.Fatalf("%s: %d edges, model %d", what, a.NumEdges(), len(model))
	}
	type half struct {
		nbr  NodeID
		slot int32
	}
	runs := map[NodeID][]half{}
	for e, slot := range model {
		runs[e.U] = append(runs[e.U], half{e.V, slot})
		runs[e.V] = append(runs[e.V], half{e.U, slot})
	}
	if a.NumNodes() != len(runs) {
		t.Fatalf("%s: %d nodes, model %d", what, a.NumNodes(), len(runs))
	}
	for _, v := range pool {
		want := runs[v]
		slices.SortFunc(want, func(x, y half) int { return int(int64(x.nbr) - int64(y.nbr)) })
		nbrs, slots := a.NeighborRun(v)
		if a.HasNode(v) != (len(want) > 0) || a.Degree(v) != len(want) || len(nbrs) != len(want) {
			t.Fatalf("%s: node %d: HasNode %v degree %d, model degree %d",
				what, v, a.HasNode(v), a.Degree(v), len(want))
		}
		for i, h := range want {
			if nbrs[i] != h.nbr || slots[i] != h.slot {
				t.Fatalf("%s: node %d run[%d] = (%d, slot %d), model (%d, slot %d)",
					what, v, i, nbrs[i], slots[i], h.nbr, h.slot)
			}
		}
	}
}

// TestAdjacencyInternChurn drives seeded adds and removes against a map
// model. The node pool holds both ends of the id space (0 and 0xFFFFFFFF)
// and ids whose intern keys all home at the last bucket of the 16-bucket
// table a fresh Adjacency starts with, so while the first phase keeps the
// table that small their probe chain wraps the table end and releases
// exercise backward-shift deletion across it. The second phase widens the
// pool so the table grows. A recycled clone (CloneInto) and an
// ExportDense/RestoreAdjacency round trip must match the model too.
func TestAdjacencyInternChurn(t *testing.T) {
	pool := []NodeID{0, 0xFFFFFFFF}
	for v := NodeID(1); len(pool) < 9; v++ {
		if randx.Mix64(nodeKey(v))&15 == 15 {
			pool = append(pool, v)
		}
	}
	rng := randx.New(9)
	a := NewAdjacency()
	var clone *Adjacency
	model := map[Edge]int32{}
	for step := 0; step < 30000; step++ {
		if step == 5000 {
			for len(pool) < 300 {
				pool = append(pool, NodeID(rng.Uint64n(1<<32)))
			}
		}
		u, v := pool[rng.Uint64n(uint64(len(pool)))], pool[rng.Uint64n(uint64(len(pool)))]
		if u == v {
			continue
		}
		e := NewEdge(u, v)
		if _, ok := model[e]; ok {
			if !a.Remove(e) || a.Remove(e) {
				t.Fatalf("step %d: Remove(%v) disagrees with the model", step, e)
			}
			delete(model, e)
		} else {
			if !a.AddWithSlot(e, int32(step)) || a.AddWithSlot(e, 0) {
				t.Fatalf("step %d: AddWithSlot(%v) disagrees with the model", step, e)
			}
			model[e] = int32(step)
		}
		if step%1000 == 999 {
			checkAgainstModel(t, "live", a, model, pool)
			clone = a.CloneInto(clone)
			checkAgainstModel(t, "recycled clone", clone, model, pool)
			restored, err := RestoreAdjacency(exportDenseCopy(a))
			if err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			checkAgainstModel(t, "restored", restored, model, pool)
		}
	}
}

// TestRestoreAdjacencyRejectsDuplicateExtremes: the intern table keys node
// v as v+1, so the id-space ends are its edge cases; either one interned
// at two dense ids must still be rejected as such.
func TestRestoreAdjacencyRejectsDuplicateExtremes(t *testing.T) {
	for _, v := range []NodeID{0, 0xFFFFFFFF} {
		other := NodeID(7)
		nodes := []NodeID{v, other, v}
		nbrs := [][]NodeID{{other}, {v}, {other}}
		slots := [][]int32{{0}, {0}, {0}}
		_, err := RestoreAdjacency(nodes, nil, nbrs, slots)
		if err == nil || !strings.Contains(err.Error(), "interned twice") {
			t.Fatalf("node %d at two dense ids: err = %v, want interned twice", v, err)
		}
	}
}

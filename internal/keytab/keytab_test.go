package keytab

import (
	"testing"

	"gps/internal/randx"
)

// checkModel asserts that t holds exactly the model's entries and that
// every stored key sits on its probe chain (no empty bucket between its
// home and its position), the invariant backward-shift deletion keeps.
func checkModel(t *testing.T, tab *Table, model map[uint64]int32) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tab.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v; want %d", k, got, ok, want)
		}
	}
	for i, k := range tab.keys {
		if k == 0 {
			continue
		}
		if _, ok := model[k]; !ok {
			t.Fatalf("bucket %d holds key %d, absent from the model", i, k)
		}
		for j := hash(k) & tab.mask; j != uint64(i); j = (j + 1) & tab.mask {
			if tab.keys[j] == 0 {
				t.Fatalf("key %d at bucket %d is cut off from its home by empty bucket %d", k, i, j)
			}
		}
	}
}

// chainKeys returns n keys whose home is the last bucket of a table with
// the given bucket count, so together they form one probe chain that wraps
// past the end of the array.
func chainKeys(n, buckets int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if hash(k)&uint64(buckets-1) == uint64(buckets-1) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableWrappingChain deletes from the front, middle and back of a
// probe chain that wraps the table end: backward shift must move the
// wrapped members back across the boundary and keep every key reachable.
func TestTableWrappingChain(t *testing.T) {
	for del := 0; del < 5; del++ {
		var tab Table
		model := map[uint64]int32{}
		keys := chainKeys(5, 16)
		for i, k := range keys {
			tab.Put(k, int32(i))
			model[k] = int32(i)
		}
		if len(tab.keys) != 16 || tab.keys[15] != keys[0] || tab.keys[0] != keys[1] {
			t.Fatalf("chain does not wrap: buckets %v", tab.keys)
		}
		tab.Del(keys[del])
		delete(model, keys[del])
		checkModel(t, &tab, model)
		tab.Del(keys[del]) // absent: no-op
		checkModel(t, &tab, model)
	}
}

// TestTableChurn drives random puts and deletes, including growth from the
// zero value and chain keys, against a map model; CopyFrom reuses an
// older, larger copy's arrays.
func TestTableChurn(t *testing.T) {
	rng := randx.New(5)
	var tab, clone Table
	model := map[uint64]int32{}
	pool := append(chainKeys(8, 16), chainKeys(8, 64)...)
	for len(pool) < 400 {
		pool = append(pool, 1+rng.Uint64n(1<<40))
	}
	for step := 0; step < 20000; step++ {
		k := pool[rng.Uint64n(uint64(len(pool)))]
		if _, ok := model[k]; ok {
			tab.Del(k)
			delete(model, k)
		} else {
			tab.Put(k, int32(step))
			model[k] = int32(step)
		}
		if step%997 == 0 {
			checkModel(t, &tab, model)
			clone.CopyFrom(&tab)
			checkModel(t, &clone, model)
		}
	}
	checkModel(t, &tab, model)
	if _, ok := tab.Get(0); ok {
		t.Fatal("key 0 found")
	}
}

// Package keytab is the repo's open-addressing hash table from nonzero
// uint64 keys to int32 values: linear probing over a power-of-two bucket
// array, backward-shift deletion (no tombstones), key 0 marking an empty
// bucket. The reservoir heap indexes edge keys with it (order) and the
// sampled-graph adjacency interns node ids with it (graph). Compared to a
// Go map it has no per-operation hashing indirection, copies as two flat
// slices, and never allocates outside growth.
package keytab

import "gps/internal/randx"

// Table maps nonzero uint64 keys to int32 values. The zero value is an
// empty table ready for use.
type Table struct {
	keys []uint64
	vals []int32
	used int
	mask uint64
}

// hash mixes the key with the splitmix64 finalizer so that structured keys
// (packed U<<32|V edge ids, consecutive node ids) spread over the low bits
// used for bucketing.
func hash(k uint64) uint64 { return randx.Mix64(k) }

// Init empties the table and sizes it to hold hint keys without growing.
func (t *Table) Init(hint int) {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.used = 0
	t.mask = uint64(size - 1)
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.used }

// Get returns the value stored under key.
func (t *Table) Get(key uint64) (int32, bool) {
	if key == 0 || t.used == 0 {
		return 0, false // 0 marks empty buckets and is never stored
	}
	i := hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Put stores val under key. The key must be nonzero and absent: callers
// check with Get first, so Put never probes for an existing entry.
func (t *Table) Put(key uint64, val int32) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
	}
	i := hash(key) & t.mask
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.vals[i] = val
	t.used++
}

func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	size := max(16, 2*len(oldKeys))
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
}

// Del removes key using backward-shift deletion: subsequent probe-chain
// members whose home bucket precedes the vacated one are shifted back so
// that every surviving key stays reachable without tombstones.
func (t *Table) Del(key uint64) {
	if key == 0 || t.used == 0 {
		return // 0 marks empty buckets and is never stored
	}
	i := hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			break
		}
		if k == 0 {
			return // absent; nothing to delete
		}
		i = (i + 1) & t.mask
	}
	t.used--
	j := i
	for {
		t.keys[i] = 0
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == 0 {
				return
			}
			home := hash(k) & t.mask
			// Shift k back iff its home bucket lies outside the cyclic
			// interval (i, j] — i.e. the vacated bucket i sits between
			// home and j, so probing for k would stop early at i.
			if cyclicBetween(home, i, j) {
				continue
			}
			break
		}
		t.keys[i] = t.keys[j]
		t.vals[i] = t.vals[j]
		i = j
	}
}

// cyclicBetween reports whether lo < x ≤ hi in cyclic bucket order, i.e.
// whether x lies strictly after lo and at or before hi when walking the
// table forward from lo.
func cyclicBetween(x, lo, hi uint64) bool {
	if lo <= hi {
		return lo < x && x <= hi
	}
	return lo < x || x <= hi
}

// CopyFrom makes t an exact copy of src — same bucket layout, no
// rehashing — reusing t's arrays when their capacity suffices. The probe
// sequence wraps with the mask, so the copies take exactly src's length;
// append onto [:0] guarantees that while keeping larger recycled capacity.
func (t *Table) CopyFrom(src *Table) {
	t.keys = append(t.keys[:0], src.keys...)
	t.vals = append(t.vals[:0], src.vals...)
	t.used, t.mask = src.used, src.mask
}

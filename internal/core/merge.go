package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"gps/internal/graph"
	"gps/internal/obs"
)

// Merge combines the reservoirs of samplers that each processed a disjoint
// substream into a single sampler over the union stream, using priority
// sampling's mergeability: every edge's priority r(k) = w(k)/u(k) is a
// function of the edge and its own uniform draw, so the m highest-priority
// edges of the union of the shard reservoirs are exactly the m
// highest-priority edges of the whole stream, and the merged threshold is
// the largest priority excluded anywhere — the maximum of the shard
// thresholds and of the priorities dropped by the merge itself.
//
// This identity is exact when weights are stream-independent (UniformWeight,
// or any W(k) that ignores the reservoir argument). For topology-dependent
// weights such as TriangleWeight each shard evaluates W(k,K̂_p) against its
// own partial reservoir, so the merged sample is an approximation whose
// weights reflect per-shard topology; see the engine package for the
// semantics discussion.
//
// The input samplers must hold disjoint edge sets (guaranteed when the
// stream was hash-partitioned by edge identity). If an edge nonetheless
// appears in several reservoirs, the highest-priority copy wins and the
// others are treated as excluded mass. The merged sampler has capacity
// cfg.Capacity, carries summed arrival/duplicate counts, and is a fully
// functional sampler: it can keep processing edges or feed any estimator.
//
// Cost: for N input entries and capacity m, O(N) to select the m admitted
// entries, O(m log m) to sort and push them into the heap, and one bulk
// adjacency build (graph.BuildAdjacency) — no total order over all N
// entries and no per-edge adjacency insertion. Only when an edge held by
// several inputs leaves slots free are the other N-m entries sorted too,
// so the worst case is O(N log N).
func Merge(samplers []*Sampler, cfg Config) (*Sampler, error) {
	return MergeFiltered(samplers, cfg, nil)
}

// MergeFiltered is Merge over the entries that keep accepts: keep(i, e)
// reports whether edge e of samplers[i] takes part. A rejected entry is
// dropped before the merge exactly as a turnstile deletion would drop it —
// it joins neither the sample nor the threshold, and the surviving entries
// keep their inclusion probabilities. A nil keep accepts every entry.
func MergeFiltered(samplers []*Sampler, cfg Config, keep func(i int, e graph.Edge) bool) (*Sampler, error) {
	if len(samplers) == 0 {
		return nil, errors.New("core: Merge requires at least one sampler")
	}
	m, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}

	// Forward decay merges only between samplers that agree on the decay
	// function and landmark: priorities are comparable across shards exactly
	// when every boost used the same g. The merged horizon is the max.
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
	cand := make([]mergeCand, 0, total)
	for si, s := range samplers {
		for i := 0; i < s.res.Len(); i++ {
			ent := s.res.heap.At(i)
			if keep != nil && !keep(si, ent.Edge) {
				continue
			}
			cand = append(cand, mergeCand{ent.Priority, ent.Edge.Key(), int32(si), int32(i)})
		}
	}

	// Admit the candidates in merge order until the reservoir is full. Only
	// the first Capacity of them can be admitted, so select those, sort just
	// them and admit them in order. A duplicate key among them (an edge held
	// by several inputs: its first copy wins) leaves slots free; the rest is
	// then sorted once and admitted in order too, so the worst case stays
	// O(N log N).
	h := m.res.heap
	admit := func(cs []mergeCand) {
		for _, c := range cs {
			if h.Len() < cfg.Capacity && !h.Contains(c.key) {
				h.Push(*samplers[c.src].res.heap.At(int(c.pos)))
				continue
			}
			m.exclude(c.prio)
		}
	}
	head := min(cfg.Capacity, len(cand))
	selectFirst(cand, head)
	slices.SortFunc(cand[:head], mergeCand.cmp)
	admit(cand[:head])
	if h.Len() < cfg.Capacity {
		slices.SortFunc(cand[head:], mergeCand.cmp)
	}
	admit(cand[head:])
	// A fresh heap issues arena slots in push order, so slot i holds the
	// i-th admitted edge — the annotation AddWithSlot would have recorded.
	m.res.adj = graph.BuildAdjacency(h.Len(), func(slot int32) graph.Edge { return h.BySlot(slot).Edge })
	return m, nil
}

// exclude accounts for an entry the merge leaves out: its priority joins
// the threshold competition, exactly as if it had been evicted — and it
// counts as an eviction, keeping accepts-evicts equal to the fill.
func (s *Sampler) exclude(priority float64) {
	if obs.Enabled {
		s.evicts++
	}
	if priority > s.zstar {
		s.zstar = priority
	}
}

// mergeCand is one entry taking part in a merge: its priority and edge key
// (the merge order) and where it lives — heap position pos of input src.
type mergeCand struct {
	prio     float64
	key      uint64
	src, pos int32
}

// cmp is the merge order: highest priority first, ties broken by edge key
// so the merge is a deterministic function of the inputs, then by position
// so the order is total even over an edge held twice at one priority.
func (a mergeCand) cmp(b mergeCand) int {
	switch {
	case a.prio != b.prio:
		if a.prio > b.prio {
			return -1
		}
		return 1
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.src != b.src:
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.pos, b.pos)
}

// selectFirst reorders c so that c[:k] holds, in no particular order, the k
// entries that come first in merge order: a quickselect with median-of-three
// pivots, falling back to a full sort of the open range if the partitions
// stay lopsided for too long, so the worst case is O(n log n).
func selectFirst(c []mergeCand, k int) {
	if k >= len(c) {
		return
	}
	lo, hi := 0, len(c) // c[:lo] precedes c[lo:hi], which precedes c[hi:]
	for budget := 2 * bits.Len(uint(len(c))); hi-lo > 16 && budget > 0; budget-- {
		p := lo + partition(c[lo:hi])
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	slices.SortFunc(c[lo:hi], mergeCand.cmp)
}

// partition reorders c around a median-of-three pivot and returns the
// pivot's final index: c[:i] precedes c[i] in merge order, c[i+1:] follows.
func partition(c []mergeCand) int {
	last := len(c) - 1
	mid := last / 2
	if c[mid].cmp(c[0]) < 0 {
		c[mid], c[0] = c[0], c[mid]
	}
	if c[last].cmp(c[0]) < 0 {
		c[last], c[0] = c[0], c[last]
	}
	if c[mid].cmp(c[last]) < 0 {
		c[mid], c[last] = c[last], c[mid]
	}
	// c[last] is now the median of the three; Lomuto around it.
	pivot, i := c[last], 0
	for j := 0; j < last; j++ {
		if c[j].cmp(pivot) < 0 {
			c[i], c[j] = c[j], c[i]
			i++
		}
	}
	c[i], c[last] = c[last], c[i]
	return i
}

// Split partitions a frozen sampler's reservoir into parts samplers by
// route(edge) — the inverse of Merge for a sampler that will only ever
// receive deletions again. Every part keeps s's capacity, weight, threshold
// z* and a clone of its RNG state (no random draw is made), so each entry
// keeps its inclusion probability min{1, w/z*} and merging the parts back
// reproduces s's sample. The stream counters stay with part 0, so sums over
// the parts equal s's. route must return an index in [0, parts). A part's
// reservoir is sized to its entries, so a part must not sample again.
func Split(s *Sampler, parts int, route func(graph.Edge) int) []*Sampler {
	part := make([]int, s.res.Len())
	sizes := make([]int, parts)
	for i := range part {
		part[i] = route(s.res.heap.At(i).Edge)
		sizes[part[i]]++
	}
	out := make([]*Sampler, parts)
	for i := range out {
		c := *s
		c.rng = s.rng.Clone()
		c.res = newReservoir(sizes[i]) // sized to the part: it never grows again
		if i > 0 {
			c.arrivals, c.duplicates, c.delApplied, c.delUnsampled, c.accepts, c.evicts = 0, 0, 0, 0, 0, 0
		}
		out[i] = &c
	}
	for i, p := range part {
		out[p].res.insert(*s.res.heap.At(i))
	}
	return out
}

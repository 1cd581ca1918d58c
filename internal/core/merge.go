package core

import (
	"errors"
	"fmt"
	"sort"

	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/order"
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
	// Highest priority first; ties broken by edge key so the merge is a
	// deterministic function of the shard reservoirs.
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
		// Excluded from the merged sample: its priority joins the
		// threshold competition, exactly as if it had been evicted — and it
		// counts as an eviction, keeping accepts-evicts equal to the fill.
		if obs.Enabled {
			m.evicts++
		}
		if ent.Priority > m.zstar {
			m.zstar = ent.Priority
		}
	}
	return m, nil
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

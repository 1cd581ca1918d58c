package engine

import (
	"errors"
	"fmt"
	"maps"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/randx"
)

// Sliding windows are a time model of Parallel, as forward decay is. Each
// shard owns a chain of time-partitioned panes: its active sampler (shard.s)
// samples the shard's edges whose event times fall in the active pane
// [i·PaneWidth, (i+1)·PaneWidth), and its retired pane samplers hold the
// shard's sample of each earlier pane. Routing hashes the edge identity, and
// a deletion routes to the same shard as its insert, so every pane event is
// shard-local:
//
//   - Rotation: when a timed insert's pane index passes the active one, the
//     shard goroutine retires the active sampler and opens a fresh one whose
//     seed derives from the shard seed and the pane index — no merge, no
//     barrier, no goroutine restart. The first timed insert only names the
//     active pane: the provisional pane holds at most an untimed prefix.
//   - Deletion fan-out: a deletion record rides the ring unsplit; the shard
//     applies it to its active sampler and to every retired pane. A retired
//     pane's sampler is immutable: the pane records a tombstone for an edge
//     it holds and counts any other deletion as vacuous, so shard clones and
//     checkpoints share retired samplers instead of copying them. Deletion
//     draws no randomness, so the fan-out keeps runs deterministic.
//   - Pruning: retired panes that can no longer intersect (T−Window, T] are
//     dropped, T being the event-time horizon tracked at admission. Shards
//     prune when they rotate and every barrier prunes all shards, so the
//     state any reader observes is the same for every interleaving.
//
// A window query (Estimate) barriers, gathers every shard's panes overlapping
// (T−w, T], and merges them once through core.MergeFiltered, dropping edges
// outside the window by stored event time and tombstoned edges — both
// exactly as a turnstile deletion would, so surviving edges keep their
// inclusion probabilities. Algorithm 2 runs after admission is released.
// Late arrivals land in the active pane, and because trimming goes by stored
// event time they still count toward exactly the windows they belong to.
//
// Retired panes stay per shard (capacity shardCapacity(m, P) each), so the
// merge sees the union of per-shard samples. GPS separates sampling from
// estimation: the window answer is Algorithm 2 over the priority-sampling
// merge of the samples overlapping the window, wherever they were frozen.

// WindowConfig parameterizes a windowed engine.
type WindowConfig struct {
	// Capacity is the reservoir size m of merged query results; each shard
	// pane holds shardCapacity(m, Shards).
	Capacity int
	// Weight is the sampling weight function shared by every pane; nil means
	// uniform. Stream-independent weights keep pane merges exact (see
	// core.Merge); topology-dependent weights are approximate exactly as
	// they are under sharding.
	Weight core.WeightFunc
	// Seed makes the whole windowed run deterministic; shard and pane seeds
	// derive from it.
	Seed uint64
	// Shards is the shard count P (<= 0 means GOMAXPROCS).
	Shards int
	// PaneWidth is the width of one pane in event-time units (> 0).
	PaneWidth uint64
	// Window is the maximum queryable window in event-time units (> 0);
	// panes are retained while they can intersect (T−Window, T].
	Window uint64
}

func (cfg WindowConfig) validate() error {
	if cfg.Capacity < 1 {
		return errors.New("engine: window Capacity must be at least 1")
	}
	if cfg.PaneWidth == 0 {
		return errors.New("engine: PaneWidth must be positive")
	}
	if cfg.Window == 0 {
		return errors.New("engine: Window must be positive")
	}
	if cfg.Window < cfg.PaneWidth {
		return errors.New("engine: Window must be at least one PaneWidth")
	}
	return nil
}

// The two capability errors of the Stream interface: asking a plain engine
// for a window query, or a windowed engine for a standing snapshot.
var (
	errNotWindowed        = errors.New("engine: window queries need a windowed engine")
	errNoStandingSnapshot = errors.New("engine: a windowed engine has no standing snapshot (queries merge panes fresh)")
)

// NewWindowed returns a sharded engine running the sliding-window time
// model, with every shard's first pane open and empty.
func NewWindowed(cfg WindowConfig) (*Parallel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newParallel(core.Config{Capacity: cfg.Capacity, Weight: cfg.Weight, Seed: cfg.Seed},
		cfg.Shards, DefaultRingCapacity, &cfg)
}

// paneChain is one shard's pane bookkeeping; the active pane's sampler is
// shard.s. A chain is mutated only by its shard goroutine, or with the ring
// drained under the admission write lock.
type paneChain struct {
	idx     uint64 // active pane index
	started bool   // a timed insert has named the active pane
	retired []pane // ascending index, all below idx
	records uint64 // records drained into the shard: its share of the stream position
}

// pane is one retired pane of a shard. Its sampler never changes again;
// deletions arriving after retirement become tombstones.
type pane struct {
	idx     uint64              // covers [idx·PaneWidth, (idx+1)·PaneWidth)
	s       *core.Sampler       // immutable once retired
	dels    map[uint64]struct{} // keys of sampled edges deleted since retirement
	vacuous uint64              // deletions since retirement of edges the pane does not hold
}

// delete applies a deletion record to the retired pane.
func (r *pane) delete(e graph.Edge) {
	k := e.Key()
	if _, gone := r.dels[k]; !gone && r.s.Reservoir().Contains(e) {
		if r.dels == nil {
			r.dels = map[uint64]struct{}{}
		}
		r.dels[k] = struct{}{}
		return
	}
	r.vacuous++
}

// deletions returns the pane's deletion verdicts, before and after
// retirement.
func (r *pane) deletions() (applied, unsampled uint64) {
	a, u := r.s.Deletions()
	return a + uint64(len(r.dels)), u + r.vacuous
}

// clone copies the chain for an immutable shard clone: retired samplers are
// shared, tombstone sets copied.
func (c *paneChain) clone() *paneChain {
	d := *c
	d.retired = make([]pane, len(c.retired))
	for i, r := range c.retired {
		r.dels = maps.Clone(r.dels)
		d.retired[i] = r
	}
	return &d
}

// prune drops the retired panes that end at or before horizon−window.
// Reports whether any pane was dropped.
func (c *paneChain) prune(win *WindowConfig, horizon uint64) bool {
	if horizon <= win.Window {
		return false
	}
	cut := horizon - win.Window
	keep := c.retired[:0]
	for _, r := range c.retired {
		if (r.idx+1)*win.PaneWidth > cut {
			keep = append(keep, r)
		}
	}
	clear(c.retired[len(keep):]) // release the dropped samplers
	dropped := len(keep) < len(c.retired)
	c.retired = keep
	return dropped
}

// paneSeed derives the seed of a shard's pane idx from the shard seed, so a
// pane's sampling run depends only on (Seed, shard, idx, stream order).
func paneSeed(shardSeed, idx uint64) uint64 {
	return randx.Mix64(shardSeed ^ randx.Mix64(idx+0x9E3779B97F4A7C15))
}

// observeHorizon raises the window horizon to the batch's largest event time
// before the batch reaches any ring, so a shard that rotates on one of these
// records prunes against a horizon at least that far along.
func (p *Parallel) observeHorizon(edges []graph.Edge) {
	var t uint64
	for i := range edges {
		if edges[i].TS > t {
			t = edges[i].TS
		}
	}
	for {
		cur := p.horizon.Load()
		if t <= cur || p.horizon.CompareAndSwap(cur, t) {
			return
		}
	}
}

// drainPanes is the windowed shard drain: inserts feed the active sampler,
// rotating it first when their pane index passes the active one, and
// deletions also fan out to the retired panes. Untimed records ride the
// active pane without advancing the pane clock.
func (p *Parallel) drainPanes(sh *shard, edges []graph.Edge) {
	c := sh.panes
	start := 0
	for i := range edges {
		e := &edges[i]
		if e.Del {
			for j := range c.retired {
				c.retired[j].delete(*e)
			}
			continue
		}
		if e.TS == 0 {
			continue
		}
		if idx := e.TS / p.win.PaneWidth; !c.started || idx > c.idx {
			sh.s.ProcessBatch(edges[start:i])
			start = i
			p.rotate(sh, idx)
		}
	}
	sh.s.ProcessBatch(edges[start:])
	c.records += uint64(len(edges))
}

// rotate opens pane idx on the shard: the active sampler joins the retired
// panes and a fresh sampler takes its place. Runs on the shard goroutine.
func (p *Parallel) rotate(sh *shard, idx uint64) {
	c := sh.panes
	if !c.started {
		c.started, c.idx = true, idx
		return
	}
	cfg := sh.cfg
	cfg.Seed = paneSeed(sh.cfg.Seed, idx)
	s, err := core.NewSampler(cfg)
	if err != nil {
		// The config built the shard's first sampler, so this cannot fail.
		panic(fmt.Sprintf("engine: pane %d: %v", idx, err))
	}
	c.retired = append(c.retired, pane{idx: c.idx, s: sh.s})
	sh.s, c.idx = s, idx
	h := p.horizon.Load()
	c.prune(p.win, h)
	// The shard's clone shares its retired samplers; prune a copy of its
	// chain too, so it does not keep dropped panes alive. Those panes are
	// out of every window from here on, so a recovery from the pruned clone
	// observes the same state as one from the original.
	p.mu.Lock()
	if a := sh.lastClone; a != nil {
		if pruned := a.panes.clone(); pruned.prune(p.win, h) {
			a.panes = pruned
		}
	}
	p.mu.Unlock()
}

// prunePanesLocked prunes every shard's chain to the current horizon, so
// what a barrier reader observes does not depend on when shards rotated.
// Callers hold the admission write lock with the rings drained. A prune
// changes the shard's state, so it bumps the epoch that keys its cached
// clone.
func (p *Parallel) prunePanesLocked() {
	h := p.horizon.Load()
	for _, sh := range p.shards {
		if sh.panes.prune(p.win, h) {
			sh.epoch.Add(1)
		}
	}
}

// forPanes calls visit on every shard pane that ends after cut — retired
// panes with their tombstones, active panes with none — and returns the
// number of distinct pane indices among them. A chain that no timed insert
// has named holds only its provisional pane, which counts when no chain is
// named. Callers hold the admission write lock with the rings drained.
func (p *Parallel) forPanes(cut uint64, visit func(s *core.Sampler, dels map[uint64]struct{})) int {
	seen := map[uint64]bool{}
	for _, sh := range p.shards {
		for _, r := range sh.panes.retired {
			if (r.idx+1)*p.win.PaneWidth > cut {
				visit(r.s, r.dels)
				seen[r.idx] = true
			}
		}
		visit(sh.s, nil)
		if sh.panes.started {
			seen[sh.panes.idx] = true
		}
	}
	return max(len(seen), 1)
}

// WindowEstimates is the result of a window query: the post-stream motif
// estimates over the merged in-window sample, plus the window geometry and
// the Horvitz-Thompson estimate of the in-window edge count.
type WindowEstimates struct {
	core.Estimates
	// Window is the effective window width queried and Horizon the event
	// time T it ends at: the estimates target edges with TS in (T−W, T]
	// (untimed edges always count).
	Window  uint64
	Horizon uint64
	// Edges is Σ 1/q(k) over the merged in-window sample — the unbiased
	// estimate of the number of in-window edges.
	Edges float64
	// Panes is the number of distinct panes merged to answer the query.
	Panes int
	// Threshold is the merged sample's priority threshold z*.
	Threshold float64
}

// Estimate answers a trailing-window query of width win event-time units
// (0 means the configured maximum): it merges every shard pane overlapping
// (T−win, T], without the edges outside the window or tombstoned, and runs
// the post-stream estimators on the merged sample. Ingestion is blocked for
// the barrier and the merge; the estimators run after it resumes. Plain
// engines return an error.
func (p *Parallel) Estimate(win uint64) (WindowEstimates, error) {
	if p.win == nil {
		return WindowEstimates{}, errNotWindowed
	}
	if win == 0 {
		win = p.win.Window
	}
	if win > p.win.Window {
		return WindowEstimates{}, fmt.Errorf("engine: window %d exceeds the configured maximum %d (older panes are already retired)",
			win, p.win.Window)
	}
	p.admit.Lock()
	if p.closed.Load() {
		p.admit.Unlock()
		return WindowEstimates{}, errors.New("engine: Estimate on closed Parallel")
	}
	p.barrierLocked()
	horizon := p.horizon.Load()
	var cut uint64 // edges with 0 < TS <= cut are out of window
	if horizon > win {
		cut = horizon - win
	}
	var (
		samplers []*core.Sampler
		dels     []map[uint64]struct{} // tombstones per sampler
	)
	panes := p.forPanes(cut, func(s *core.Sampler, d map[uint64]struct{}) {
		samplers = append(samplers, s)
		dels = append(dels, d)
	})
	merged, err := p.merge(samplers, func(i int, e graph.Edge) bool {
		if e.TS != 0 && e.TS <= cut {
			return false
		}
		_, gone := dels[i][e.Key()]
		return !gone
	})
	p.admit.Unlock()
	if err != nil {
		return WindowEstimates{}, fmt.Errorf("engine: window merge: %w", err)
	}
	res := WindowEstimates{
		Estimates: core.EstimatePost(merged),
		Window:    win,
		Horizon:   horizon,
		Panes:     panes,
		Threshold: merged.Threshold(),
	}
	merged.Reservoir().ForEachEdge(func(e graph.Edge) bool {
		if q, ok := merged.InclusionProb(e); ok && q > 0 {
			res.Edges += 1 / q
		}
		return true
	})
	return res, nil
}

// WindowSpec reports the sliding-window geometry, with Shards resolved;
// ok is false on plain engines.
func (p *Parallel) WindowSpec() (WindowConfig, bool) {
	if p.win == nil {
		return WindowConfig{}, false
	}
	return *p.win, true
}

// Panes returns the number of distinct pane indices retained across the
// shard chains (0 on plain engines). It synchronizes like Arrivals.
func (p *Parallel) Panes() int {
	if p.win == nil {
		return 0
	}
	p.admit.Lock()
	defer p.admit.Unlock()
	p.barrierLocked()
	return p.forPanes(0, func(*core.Sampler, map[uint64]struct{}) {})
}

// registerWindowMetrics attaches the gps_window_* families that stand in for
// the engine families on windowed streams; the pane count barriers like
// Panes. labels (e.g. a stream name) are stamped on every sample.
func (p *Parallel) registerWindowMetrics(reg *obs.Registry, labels ...obs.Label) {
	wc := *p.win
	reg.RegisterGaugeFunc("gps_window_width",
		"Queryable window maximum, in event-time units.",
		func() float64 { return float64(wc.Window) }, labels...)
	reg.RegisterGaugeFunc("gps_window_pane_width",
		"Window pane width, in event-time units.",
		func() float64 { return float64(wc.PaneWidth) }, labels...)
	reg.RegisterGaugeFunc("gps_window_panes",
		"Distinct panes retained across the shard pane chains.",
		func() float64 { return float64(p.Panes()) }, labels...)
	reg.RegisterGaugeFunc("gps_window_horizon",
		"Largest event time ingested (the horizon window queries end at).",
		func() float64 { return float64(p.Horizon()) }, labels...)
}

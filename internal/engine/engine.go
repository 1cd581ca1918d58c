// Package engine provides the horizontal-scale layer of the GPS
// reproduction: a sharded sampler that hash-partitions an edge stream
// across per-goroutine GPS reservoirs and merges them on demand.
//
// # Design
//
// Each of the P shards owns a core.Sampler (capacity shardCapacity(m, P),
// its own RNG derived deterministically from the root seed) and a goroutine
// fed through a bounded single-consumer ring buffer. The partition function
// is a fixed hash of the canonical edge identity, so a given edge always
// lands on the same shard regardless of arrival order and the per-shard
// substreams are disjoint. Merging takes the union of the shard reservoirs,
// keeps the m highest priorities, and sets the merged threshold z* to the
// largest priority excluded anywhere (shard thresholds and merge-time
// drops) — the standard priority-sampling merge, performed by core.Merge.
//
// # The ingest data plane
//
// Producers never take an engine-wide mutex per batch. ProcessBatch groups
// its batch by shard in one counting-sort pass (order-preserving within the
// batch), then appends each shard's contiguous run to that shard's ring;
// the shard goroutines drain contiguous spans straight out of the ring
// memory and feed them to core.Sampler.ProcessBatch. The only shared state
// a producer touches is a read lock (admit.RLock, taken for the duration of
// the batch so queries still observe batches atomically) and the ring of
// each shard the batch actually hits. Concurrent producers therefore scale
// with cores: the sampling itself runs P-wide in the shard goroutines, and
// the routing runs producer-wide with per-shard serialization only at the
// ring append.
//
// The engine-wide barrier (Merge, Snapshot, WriteCheckpoint, Arrivals,
// Close) takes the admission write lock — excluding producers — and waits
// for every ring to drain, after which the shard samplers are quiescent.
// This is the only remaining global synchronization, and it is paid per
// query, not per batch.
//
// # Determinism
//
// Every run driven by one producer is a deterministic function of (seed,
// stream content, shard count): grouping preserves within-batch order,
// sequential batches append in call order, and order within a shard
// follows stream order regardless of ring capacity, batch sizes or
// consumer scheduling — batch shard-grouping is bit-identical to per-edge
// routing (tested). With concurrent producers each shard still processes a
// serialization of the producers' runs (appends to one ring are totally
// ordered), so producers that touch disjoint shard sets — e.g. upstream
// partitioned traffic — remain fully deterministic; producers racing to
// the same shard interleave at run granularity, exactly as their requests
// would have interleaved at the old router mutex.
//
// Forward decay is the exception: stamping arrival-order event times and
// pinning the landmark are inherently serial, so decayed admission runs
// under a dedicated small mutex (clock + stamp + group + append). Decayed
// ingest still scales: the serial section is the routing arithmetic, while
// the sampling — boost, heap, topology — runs P-wide in the shards.
//
// # Shard capacity and exactness
//
// Each shard's reservoir holds shardCapacity(m, P) = m/P plus a
// concentration-bound slack (8·√(m/P) + 64, capped at m) edges. The merge
// is exact whenever every edge of the global top-m survives its shard,
// i.e. no shard received more than its capacity's worth of the global
// top-m. Under hash partitioning the top-m spreads Binomial(m, 1/P) per
// shard, so the slack puts shard overflow ≥ 9 standard deviations out —
// for m = 100K, P = 4 the failure probability is below 1e-18 per run, and
// a failure merely swaps the sample's boundary edge. The slack also keeps
// the merged threshold exact: the union holds the global top-(m + P·slack)
// with the same probability, so the (m+1)-st highest priority of the union
// — which the merge promotes into z* — is the global (m+1)-st.
//
// For stream-independent weights (UniformWeight, or any W(k) ignoring the
// reservoir) the merged sample is therefore distributed as a sequential
// GPS(m) sample of the whole stream: priorities are independent of the
// partition, and "top-m of the union of per-shard top-k's" equals "top-m
// of the stream". For topology-dependent weights (TriangleWeight,
// AdjacencyWeight) each shard scores arrivals against its own partial
// reservoir, which holds ~1/P of the sampled topology, so weights — and
// therefore the variance-reduction targeting — are approximate; the
// Horvitz-Thompson normalization remains valid because each edge's stored
// weight is still the weight its priority was drawn with. This is the same
// trade Tiered Sampling and friends make to scale motif-aware sampling —
// and it is also why sharding pays even on few cores: every topology query
// runs against a P×-smaller sampled subgraph.
//
// # Queries under ingestion
//
// Parallel is safe for concurrent use: producers share the admission read
// lock, and Merge/Snapshot/WriteCheckpoint take the write side only for
// the barrier (plus, for Snapshot, the dirty-shard clone). Merge holds it
// for the whole merge (ingestion stops while the merged sampler is built);
// Snapshot releases it right after the clone — O(m) memory copies,
// parallelized across shards — and performs the merge on the clones after
// ingestion has already resumed. Snapshot is therefore the low-pause query
// path of a live service: at any batch boundary it yields a sampler
// bit-identical to what Merge would have produced at the same point, and
// the result is immutable with respect to further ingestion.
//
// # Sliding windows
//
// Windowing is the engine's other time model (NewWindowed; mutually
// exclusive with decay). Each shard owns a chain of per-pane samplers and
// rotates it locally, in ring order, as event time passes pane boundaries;
// deletions fan out to the shard's retired panes on the same goroutine. A
// window query merges the shard panes overlapping the window once. There is
// no standing snapshot: Snapshot and Merge report an error. See window.go.
//
// # Incremental (dirty-shard) snapshots
//
// Snapshots are incremental: each shard carries an epoch counter bumped on
// every edge routed to it, and Snapshot clones only shards whose epoch
// moved since their previous clone — the rest reuse the prior immutable
// clone, which nothing ever mutates (merging only reads them). Under
// skewed or bursty traffic most shards are clean at any given refresh, so
// the ingestion stall shrinks from "clone everything" to "clone what
// changed". Retired clones are recycled through a per-shard sync.Pool via
// core.Sampler.CloneReusing, with reference counts making sure a clone
// still feeding a concurrent merge is never handed out for reuse; in steady
// state a refresh allocates nothing. SnapshotStats exposes the
// cloned/reused counters and LastSnapshotStall the most recent
// ingestion-blocked duration.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/randx"
)

// DefaultBatch is the batch size the engine's own helpers (and callers
// that buffer arrivals) aim for: large enough to amortize the per-batch
// grouping pass and ring handshake to a few nanoseconds per edge, small
// enough to keep shards busy and queries fresh.
const DefaultBatch = 4096

// DefaultRingCapacity is the per-shard ring buffer size in edges. At 24
// bytes per edge (canonical pair, event time, deletion flag plus padding) a
// shard queue tops out at 768 KiB; a full ring blocks the producer (counted
// as a router stall) rather than buffering unboundedly.
const DefaultRingCapacity = 1 << 15

// Parallel is a sharded GPS sampler. Feed it with Process/ProcessBatch
// (from any number of goroutines), call Merge or Snapshot (any number of
// times, from any goroutine) for a sequential Sampler positioned over
// everything fed so far, and Close when done. Per-edge Process pays one
// shard-ring append per call, so high-rate producers should feed batches.
type Parallel struct {
	// admit is the producer/barrier lock: Process and ProcessBatch hold the
	// read side for the duration of a batch (keeping batches atomic with
	// respect to queries), while Merge/Snapshot/WriteCheckpoint/Close hold
	// the write side across the ring-drain barrier.
	admit  sync.RWMutex
	closed atomic.Bool

	// mu guards the snapshot/checkpoint bookkeeping: clone caches and
	// refcounts, telemetry counters, and the merged-result cache. It nests
	// inside admit (never take admit while holding mu).
	mu sync.Mutex

	cfg       core.Config
	mergeSeed uint64
	shards    []*shard
	groups    sync.Pool // *groupScratch: batch shard-grouping buffers
	wg        sync.WaitGroup

	// Snapshot telemetry; counters guarded by mu, stall read lock-free.
	snapshots    uint64
	shardsCloned uint64
	shardsReused uint64
	lastStall    atomic.Int64 // ns ingestion was blocked by the last Snapshot

	// Checkpoint telemetry, guarded by mu: checkpoints taken, shard blobs
	// freshly serialized, and clean shards whose cached blob was reused.
	checkpoints     uint64
	shardsEncoded   uint64
	shardBlobReused uint64

	// Merged-result cache: the most recent Snapshot merge and the shard
	// epoch vector it reflects. A snapshot finding every epoch unchanged
	// returns it directly — the merge is deterministic in the clones, so
	// re-running it would rebuild a bit-identical sampler. Guarded by mu.
	lastMerged       *core.Sampler
	lastMergedEpochs []uint64

	// Forward-decay admission state, guarded by decayMu (which nests inside
	// admit.RLock): stamping arrival-order event times and pinning the
	// landmark are serial by nature — priorities are only comparable across
	// shards when every shard boosts against the same landmark, so the
	// first routed edge pins the landmark on every shard at once (they are
	// still quiescent: nothing has been appended to any ring). clock is the
	// engine-wide event-time counter stamped onto untimed edges (edge TS 0)
	// so that arrival-order decay is coherent across shards — per-shard
	// positions would advance at ~1/P the global rate. Decayed admission —
	// stamp, group, append — runs entirely under decayMu so that the
	// per-shard run order agrees with the clock order.
	decayMu     sync.Mutex
	decay       bool
	landmarked  bool
	clock       uint64
	horizon     atomic.Uint64 // max event time admitted (decay: under decayMu; window: CAS); read lock-free
	landmarkVal atomic.Uint64 // pinned landmark L (0 = not pinned yet); read lock-free

	// win is the sliding-window geometry, nil on plain engines; every shard
	// of a windowed engine carries a pane chain (see window.go).
	win *WindowConfig

	// restartsTotal counts shard consumer restarts across all shards
	// (see supervisor.go); read lock-free by Restarts and the metrics.
	restartsTotal atomic.Uint64

	// met holds the engine-owned histograms (see metrics.go); initialized by
	// startShards, attached to a registry by RegisterMetrics.
	met engineMetrics
}

type shard struct {
	ring *ring
	s    *core.Sampler

	// panes is the windowed shard's pane chain, whose active pane s samples;
	// nil on plain engines.
	panes *paneChain

	// cfg is the per-shard sampler configuration (capacity share, derived
	// seed) kept so the supervisor can rebuild the sampler from scratch
	// when no immutable clone exists to restore from (see supervisor.go).
	cfg core.Config

	// epoch counts edges ever routed to this shard; producers bump it at
	// admission (under admit.RLock), snapshot bookkeeping reads it with
	// producers excluded, so any observed value is exact at a barrier.
	epoch atomic.Uint64

	// Self-healing state (see supervisor.go). restarts/lost/degraded/
	// lastPanic are written by the shard's own supervisor and read
	// lock-free by health queries. baseProcessed is the sampler's stream
	// position when it was installed at construction (non-zero after a
	// checkpoint restore) — the edges a from-scratch rebuild loses on top
	// of everything the ring consumer ever drained.
	restarts      atomic.Uint64
	lost          atomic.Uint64
	degraded      atomic.Bool
	lastPanic     atomic.Value // string
	baseProcessed uint64

	// cloneHead is the consumer position (ring.head) at which the shard
	// sampler's content last equaled lastClone — recorded when the clone
	// is taken (rings drained, head == tail) and re-anchored by lossy
	// recoveries. head == cloneHead means restoring from lastClone and
	// replaying the ring backlog reproduces the pre-panic state bit for
	// bit. Guarded by p.mu.
	cloneHead uint64

	// Dirty tracking for incremental snapshots; all guarded by p.mu.
	snapEpoch uint64    // epoch the last clone was taken at
	lastClone *shardRef // immutable clone of s at snapEpoch, nil before first snapshot
	clonePool sync.Pool // retired *core.Sampler clones for CloneReusing

	// Checkpoint cache: the serialized GPSC blob of this shard at
	// ckptEpoch, recording weight name ckptName. A checkpoint finding both
	// unchanged reuses the bytes verbatim — clean shards skip
	// re-serialization entirely. Guarded by p.mu.
	ckptEpoch uint64
	ckptName  string
	ckptBytes []byte
}

// shardRef is a reference-counted immutable shard clone. refs counts the
// snapshot-cache reference (while the clone is its shard's lastClone) plus
// one per in-flight merge reading it; it is guarded by p.mu. When refs
// drops to zero the clone is retired into the shard's pool and its backing
// arrays feed the next CloneReusing.
type shardRef struct {
	s     *core.Sampler
	panes *paneChain // windowed shards: a copy of the chain; replaced, never mutated
	refs  int
}

// groupScratch is the reusable per-batch buffer of the shard-grouping
// router: shard index per edge, per-shard counts/offsets, and the scatter
// buffer holding the batch regrouped into per-shard contiguous runs.
type groupScratch struct {
	idx    []int32
	count  []int32
	offset []int32
	buf    []graph.Edge
}

func (g *groupScratch) grow(n, shards int) {
	if cap(g.idx) < n {
		g.idx = make([]int32, n)
		g.buf = make([]graph.Edge, n)
	}
	g.idx = g.idx[:n]
	g.buf = g.buf[:n]
	if cap(g.count) < shards {
		g.count = make([]int32, shards)
		g.offset = make([]int32, shards)
	}
	g.count = g.count[:shards]
	g.offset = g.offset[:shards]
	for i := range g.count {
		g.count[i] = 0
	}
}

// NewParallel returns a sharded sampler with the given shard count;
// shards <= 0 means GOMAXPROCS. Weight functions must be pure (stateless):
// all shards share cfg.Weight and call it concurrently, so a stateful
// weight (e.g. NewAdaptiveTriangleWeight) must not be used here.
func NewParallel(cfg core.Config, shards int) (*Parallel, error) {
	return newParallel(cfg, shards, DefaultRingCapacity, nil)
}

// newParallel is NewParallel with an explicit per-shard ring capacity
// (tests use tiny rings to exercise wrap-around and producer stalls) and an
// optional window geometry (NewWindowed).
func newParallel(cfg core.Config, shards, ringCap int, win *WindowConfig) (*Parallel, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Capacity < 1 {
		return nil, errors.New("engine: Capacity must be at least 1")
	}
	p := &Parallel{
		cfg:    cfg,
		shards: make([]*shard, shards),
		decay:  cfg.Decay.Enabled(),
		win:    win,
	}
	if win != nil {
		win.Shards = shards
	}
	if cfg.Decay.Enabled() && cfg.Decay.Landmark != 0 {
		p.landmarkVal.Store(cfg.Decay.Landmark)
	}
	// Derive the per-shard seeds and the merge seed from the root seed so
	// the whole run is reproducible from cfg.Seed alone.
	seeds := randx.New(cfg.Seed)
	p.mergeSeed = seeds.Uint64()
	shardCap := shardCapacity(cfg.Capacity, shards)
	for i := range p.shards {
		scfg := cfg
		scfg.Capacity = shardCap
		scfg.Seed = seeds.Uint64()
		s, err := core.NewSampler(scfg)
		if err != nil {
			return nil, err
		}
		p.shards[i] = &shard{ring: newRing(ringCap), s: s, cfg: scfg}
		if win != nil {
			p.shards[i].panes = &paneChain{}
		}
	}
	p.startShards()
	return p, nil
}

// startShards launches the supervised consumer goroutines; shared by the
// constructor and checkpoint restore.
func (p *Parallel) startShards() {
	p.groups.New = func() any { return new(groupScratch) }
	p.met.init()
	for i, sh := range p.shards {
		i, sh := i, sh
		p.wg.Add(1)
		go p.runShard(i, sh)
	}
}

// shardCapacity returns the per-shard reservoir size: an equal share of the
// global capacity plus enough slack that the global top-m overflows a shard
// with negligible probability (see the package comment).
func shardCapacity(m, shards int) int {
	if shards <= 1 {
		return m
	}
	share := (m + shards - 1) / shards
	c := share + 8*int(math.Sqrt(float64(share))) + 64
	if c > m {
		c = m
	}
	return c
}

// Process routes one edge to its shard. It panics if p is closed.
func (p *Parallel) Process(e graph.Edge) {
	p.admit.RLock()
	// Deferred (not inline) so an injected ring-publish panic escaping to a
	// recovering caller cannot leave the admission lock held and wedge every
	// future barrier.
	defer p.admit.RUnlock()
	if p.closed.Load() {
		panic("engine: Process on closed Parallel")
	}
	if p.win != nil {
		p.observeHorizon([]graph.Edge{e})
	}
	if p.decay {
		var one [1]graph.Edge
		one[0] = e
		p.admitDecayed(one[:])
	} else {
		sh := p.shards[p.ShardOf(e)]
		sh.epoch.Add(1)
		sh.ring.append1(e)
	}
}

// ProcessBatch routes a batch of edges to their shards: one grouping pass
// splits the batch into per-shard contiguous runs (order-preserving), and
// each run is appended to its shard's ring. The batch is admitted
// atomically with respect to Merge, Snapshot and Estimate: a concurrent
// query sees either none or all of it. On a closed engine it panics, except
// that a windowed engine reports closure as the error of the Stream batch
// contract; admission itself cannot partially fail.
func (p *Parallel) ProcessBatch(edges []graph.Edge) error {
	p.admit.RLock()
	// Deferred so a panic escaping mid-admission (e.g. an injected
	// ring-publish fault caught by a recovering caller) cannot wedge the
	// admission lock. Batch granularity makes the defer cost negligible.
	defer p.admit.RUnlock()
	if p.closed.Load() {
		if p.win != nil {
			return errors.New("engine: ProcessBatch on closed Parallel")
		}
		panic("engine: ProcessBatch on closed Parallel")
	}
	if len(edges) == 0 {
		return nil
	}
	if p.win != nil {
		p.observeHorizon(edges)
	}
	if p.decay {
		p.admitDecayed(edges)
		return nil
	}
	if len(p.shards) == 1 {
		sh := p.shards[0]
		sh.epoch.Add(uint64(len(edges)))
		sh.ring.append(edges)
		return nil
	}
	g := p.groups.Get().(*groupScratch)
	p.groupAndAppend(g, edges, false)
	p.groups.Put(g)
	return nil
}

// groupAndAppend runs the counting-sort router: pass 1 hashes every edge to
// its shard and counts run lengths, pass 2 scatters the batch (in original
// order, so runs preserve it) into per-shard contiguous regions of the
// scratch buffer — stamping decay event times along the way when stamp is
// set — and finally each non-empty run is appended to its shard's ring.
// The rings copy, so the scratch is reusable immediately.
func (p *Parallel) groupAndAppend(g *groupScratch, edges []graph.Edge, stamp bool) {
	ns := len(p.shards)
	g.grow(len(edges), ns)
	for i, e := range edges {
		s := int32(randx.Mix64(e.Key()) % uint64(ns))
		g.idx[i] = s
		g.count[s]++
	}
	var off int32
	for s := range g.offset {
		g.offset[s] = off
		off += g.count[s]
	}
	horizon := p.horizon.Load()
	for i, e := range edges {
		if stamp {
			// Engine-wide event clock: untimed edges get the global stream
			// position as their event time (checkpointed, so a restore
			// resumes the same clock). Callers hold decayMu.
			p.clock++
			if e.TS == 0 {
				e.TS = p.clock
			}
			if e.TS > horizon {
				horizon = e.TS
			}
			if !p.landmarked {
				p.pinLandmark(e.TS)
			}
		}
		s := g.idx[i]
		g.buf[g.offset[s]] = e
		g.offset[s]++
	}
	if stamp {
		p.horizon.Store(horizon)
	}
	end := g.offset
	for s := 0; s < ns; s++ {
		n := g.count[s]
		if n == 0 {
			continue
		}
		sh := p.shards[s]
		sh.epoch.Add(uint64(n))
		sh.ring.append(g.buf[end[s]-n : end[s]])
	}
}

// admitDecayed is the decayed admission path: stamp, group and append under
// decayMu, so that the engine clock, the landmark pin and the per-shard run
// order all agree on one serialization of the producers. Callers hold
// admit.RLock.
func (p *Parallel) admitDecayed(edges []graph.Edge) {
	g := p.groups.Get().(*groupScratch)
	p.decayMu.Lock()
	defer p.decayMu.Unlock()
	p.groupAndAppend(g, edges, true)
	p.groups.Put(g)
}

// pinLandmark pins the shared decay landmark from the first routed edge's
// event time. Callers hold decayMu and nothing has ever been appended to a
// ring, so the shard samplers are untouched and quiescent; the ring append
// that follows publishes the mutation to the consumers.
func (p *Parallel) pinLandmark(ts uint64) {
	p.landmarked = true
	if p.cfg.Decay.Landmark != 0 {
		return
	}
	p.landmarkVal.Store(ts)
	for _, sh := range p.shards {
		if err := sh.s.SetDecayLandmark(ts); err != nil {
			panic(fmt.Sprintf("engine: landmark pinning: %v", err))
		}
		// Pinning mutates the shard sampler, so every cached clone and
		// checkpoint blob keyed by the shard epoch is stale — without this
		// bump a later checkpoint would mix pinned and pre-pin shard
		// documents and fail restore's landmark-agreement validation.
		sh.epoch.Add(1)
	}
}

// barrierLocked waits until every shard ring has drained and its sampler is
// quiescent, then prunes windowed pane chains to the current horizon.
// Callers hold admit (write side), so no producer can append while it runs.
// After Close the rings are already drained and the shard goroutines
// stopped, so the wait is a no-op.
func (p *Parallel) barrierLocked() {
	start := time.Now()
	for _, sh := range p.shards {
		sh.ring.drainWait()
	}
	p.met.barrierNS.Observe(uint64(time.Since(start)))
	if p.win != nil {
		p.prunePanesLocked()
	}
}

// Shards returns the shard count P.
func (p *Parallel) Shards() int { return len(p.shards) }

// Arrivals returns the total number of distinct edges processed across all
// shards — on a windowed engine, the stream position (every record fed,
// counted once). It synchronizes: all pending batches are processed first.
func (p *Parallel) Arrivals() uint64 {
	p.admit.Lock()
	defer p.admit.Unlock()
	p.barrierLocked()
	var total uint64
	for _, sh := range p.shards {
		if sh.panes != nil {
			total += sh.position()
		} else {
			total += sh.s.Arrivals()
		}
	}
	return total
}

// Deletions returns the summed turnstile-deletion counters across all
// shards: applied removed a resident edge from some shard reservoir,
// unsampled applied vacuously. It synchronizes like Arrivals. A deletion
// record routes to the same shard as its insert (the partition hashes the
// canonical edge identity, which ignores the deletion flag), so exactly one
// shard accounts for each record — once per retained pane on a windowed
// engine, where the shard fans the record out to its retired panes.
func (p *Parallel) Deletions() (applied, unsampled uint64) {
	p.admit.Lock()
	defer p.admit.Unlock()
	p.barrierLocked()
	for _, sh := range p.shards {
		a, u := sh.s.Deletions()
		applied += a
		unsampled += u
		if sh.panes != nil {
			for i := range sh.panes.retired {
				a, u := sh.panes.retired[i].deletions()
				applied += a
				unsampled += u
			}
		}
	}
	return applied, unsampled
}

// Merge drains all pending work and returns a sequential Sampler holding
// the union sample: the Capacity highest-priority edges across every
// shard, with the merge-time threshold. The returned sampler is
// independent of p — estimation may run on it while p keeps consuming the
// stream. Merge may be called any number of times: it only reads the shard
// reservoirs, so back-to-back merges with no processing in between return
// identical samplers. Ingestion is blocked for the full duration of the
// merge; services that query continuously should prefer Snapshot, which
// blocks ingestion only for the shard clone.
func (p *Parallel) Merge() (*core.Sampler, error) {
	p.admit.Lock()
	defer p.admit.Unlock()
	if p.closed.Load() {
		return nil, errors.New("engine: Merge on closed Parallel")
	}
	if p.win != nil {
		return nil, errNoStandingSnapshot
	}
	p.barrierLocked()
	samplers := make([]*core.Sampler, len(p.shards))
	for i, sh := range p.shards {
		samplers[i] = sh.s
	}
	return p.merge(samplers, nil)
}

// Snapshot drains all pending work, clones the shard reservoirs that
// changed since their previous clone (in parallel, one goroutine per dirty
// shard) and releases ingestion before merging the clones into the
// returned sequential Sampler. The result is bit-identical to what Merge
// would have returned at the same stream position — a deterministic
// function of (seed, edges fed so far, shard count) — but ingestion stalls
// only for the dirty-shard clone instead of the merge's sort and reservoir
// rebuild; shards untouched since the last snapshot reuse their prior
// immutable clone at zero cost, and a snapshot with no shard dirty at all
// skips the merge too, returning the previous merged sampler. Snapshots
// are immutable by contract: the engine never mutates a returned sampler
// (so any number of estimator goroutines may read it concurrently), and
// callers must not either — back-to-back snapshots of an idle engine share
// one sampler.
func (p *Parallel) Snapshot() (*core.Sampler, error) {
	p.admit.Lock()
	start := time.Now() // ingestion is blocked from here to admit.Unlock
	if p.closed.Load() {
		p.admit.Unlock()
		return nil, errors.New("engine: Snapshot on closed Parallel")
	}
	if p.win != nil {
		p.admit.Unlock()
		return nil, errNoStandingSnapshot
	}
	p.barrierLocked()
	p.mu.Lock()
	epochs := make([]uint64, len(p.shards))
	clean := p.lastMerged != nil
	for i, sh := range p.shards {
		epochs[i] = sh.epoch.Load()
		clean = clean && p.lastMergedEpochs[i] == epochs[i]
	}
	if clean {
		m := p.lastMerged
		p.snapshots++
		p.shardsReused += uint64(len(p.shards))
		stall := time.Since(start)
		p.lastStall.Store(int64(stall))
		p.met.stallNS.Observe(uint64(stall))
		p.mu.Unlock()
		p.admit.Unlock()
		return m, nil
	}
	refs := make([]*shardRef, len(p.shards))
	var wg sync.WaitGroup
	for i, sh := range p.shards {
		var fresh bool
		refs[i], fresh = p.acquireCloneLocked(sh, &wg)
		if fresh {
			p.shardsCloned++
		} else {
			p.shardsReused++
		}
	}
	p.snapshots++
	p.mu.Unlock()
	wg.Wait() // clones must be complete before ingestion resumes
	stall := time.Since(start)
	p.lastStall.Store(int64(stall))
	p.met.stallNS.Observe(uint64(stall))
	p.admit.Unlock()

	clones := make([]*core.Sampler, len(refs))
	for i, r := range refs {
		clones[i] = r.s
	}
	m, err := p.merge(clones, nil)

	p.mu.Lock()
	for i, r := range refs {
		p.releaseCloneLocked(i, r)
	}
	if err == nil {
		// Publish for the clean fast path. Concurrent snapshots may store
		// out of order; any stored (sampler, epochs) pair is internally
		// consistent, and the clean check compares against live epochs.
		p.lastMerged = m
		p.lastMergedEpochs = epochs
	}
	p.mu.Unlock()
	return m, err
}

// acquireCloneLocked returns a reference to an immutable clone of sh frozen
// at its current epoch, reporting whether a fresh clone had to be taken. A
// shard untouched since its previous clone reuses that clone (it is
// immutable; any number of merges may read it); a dirty shard registers a
// new ref and schedules the clone on wg — the ref's sampler is valid only
// after wg.Wait(). Callers hold p.mu and the admission write lock with the
// rings drained, and must eventually hand the ref to releaseCloneLocked.
// Snapshot and WriteCheckpoint share this path, so a checkpoint right after
// a snapshot (or vice versa) clones nothing at all.
func (p *Parallel) acquireCloneLocked(sh *shard, wg *sync.WaitGroup) (ref *shardRef, fresh bool) {
	epoch := sh.epoch.Load()
	if sh.lastClone != nil && sh.snapEpoch == epoch {
		sh.lastClone.refs++
		return sh.lastClone, false
	}
	ref = &shardRef{refs: 2} // the shard cache + the caller
	if old := sh.lastClone; old != nil {
		old.refs-- // drop the cache reference
		if old.refs == 0 {
			sh.clonePool.Put(old.s)
		}
	}
	sh.lastClone = ref
	sh.snapEpoch = epoch
	// The rings are drained (head == tail), so the clone's content is the
	// sampler at exactly this consumer position — the anchor the supervisor
	// needs to tell an exact restore from a lossy one.
	sh.cloneHead = sh.ring.head.Load()
	if sh.panes != nil {
		ref.panes = sh.panes.clone() // shares the retired samplers: cheap
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var recycle *core.Sampler
		if v := sh.clonePool.Get(); v != nil {
			recycle = v.(*core.Sampler)
		}
		ref.s = sh.s.CloneReusing(recycle)
	}()
	return ref, true
}

// releaseCloneLocked drops the caller's reference on shard i's clone,
// retiring the backing arrays for reuse when the clone is no longer the
// shard's cached one and nobody else is reading it. Callers hold p.mu.
func (p *Parallel) releaseCloneLocked(i int, ref *shardRef) {
	ref.refs--
	if ref.refs == 0 && p.shards[i].lastClone != ref {
		p.shards[i].clonePool.Put(ref.s)
	}
}

// SnapshotStats reports cumulative snapshot counters: snapshots taken,
// shard clones performed, and clean shards that reused the previous clone.
// cloned+reused equals snapshots×Shards().
func (p *Parallel) SnapshotStats() (snapshots, cloned, reused uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshots, p.shardsCloned, p.shardsReused
}

// LastSnapshotStall returns how long the most recent Snapshot blocked
// ingestion: the barrier plus the dirty-shard clone, excluding the merge
// (which runs after ingestion resumes).
func (p *Parallel) LastSnapshotStall() time.Duration {
	return time.Duration(p.lastStall.Load())
}

// RingStats is a point-in-time view of the ingest data plane: per-shard
// queue depths, their sum, the shared ring capacity, and the cumulative
// number of producer stalls (appends that found a ring full and had to
// wait for the shard goroutine — the router's backpressure signal).
type RingStats struct {
	Capacity int      // per-shard ring capacity in edges
	Depths   []int    // edges queued per shard, racy gauge
	Backlog  int      // sum of Depths
	Stalls   uint64   // cumulative full-ring producer waits
	Epochs   []uint64 // edges ever routed per shard (includes queued)
}

// RingStats samples the ingest rings without synchronizing: depths and
// epochs are racy gauges suitable for monitoring, not barriers.
func (p *Parallel) RingStats() RingStats {
	st := RingStats{
		Capacity: len(p.shards[0].ring.buf),
		Depths:   make([]int, len(p.shards)),
		Epochs:   make([]uint64, len(p.shards)),
	}
	for i, sh := range p.shards {
		d := sh.ring.depth()
		st.Depths[i] = d
		st.Backlog += d
		st.Stalls += sh.ring.stalls.Load()
		st.Epochs[i] = sh.epoch.Load()
	}
	return st
}

// Decay returns the forward-decay configuration the engine runs with (the
// zero value when decay is off).
func (p *Parallel) Decay() core.Decay { return p.cfg.Decay }

// DecayLandmark returns the pinned forward-decay landmark L, with ok=false
// before the first edge pinned it. Lock-free; callers use it to range-check
// event times before admission.
func (p *Parallel) DecayLandmark() (uint64, bool) {
	v := p.landmarkVal.Load()
	return v, v != 0
}

// Horizon returns the largest event time admitted — the horizon decayed
// estimates from a merge or snapshot at this moment would target, and the
// end T of every window query. It is tracked at admission (lock-free read;
// no ingestion stall) and is 0 on a plain undecayed engine.
func (p *Parallel) Horizon() uint64 { return p.horizon.Load() }

// ShardOf returns the shard index the given edge routes to: a
// splitmix-mixed hash of the canonical edge key, independent of arrival
// order. It is exposed for tests and benchmarks that need to construct
// shard-targeted traffic (e.g. to exercise dirty-shard snapshots).
func (p *Parallel) ShardOf(e graph.Edge) int {
	return int(randx.Mix64(e.Key()) % uint64(len(p.shards)))
}

// merge runs the priority-sampling merge over the given shard samplers with
// the derived merge seed, over the entries keep accepts (nil: all; see
// core.MergeFiltered). Safe without any engine lock when the samplers are
// clones; for live shard samplers the caller must hold the admission write
// lock with the rings drained.
func (p *Parallel) merge(samplers []*core.Sampler, keep func(int, graph.Edge) bool) (*core.Sampler, error) {
	mcfg := p.cfg
	mcfg.Seed = p.mergeSeed
	m, err := core.MergeFiltered(samplers, mcfg, keep)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return m, nil
}

// Close drains remaining work and stops the shard goroutines. The shard
// samplers stay readable (e.g. via a prior Merge result), but further use
// of p is invalid: Merge and Snapshot return an error, Process and
// ProcessBatch panic. Close is idempotent.
func (p *Parallel) Close() {
	p.admit.Lock()
	defer p.admit.Unlock()
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range p.shards {
		sh.ring.close()
	}
	p.wg.Wait()
}

package engine

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/randx"
)

// GPSC engine payload (checkpoint.KindEngine): a container of per-shard
// sampler documents.
//
//	uvarint  global capacity m
//	uvarint  shard count P
//	u64      root seed (informational; shard RNG states travel below)
//	u64      merge seed
//	v2 only: uvarint event clock (stamped onto untimed edges under decay)
//	u32      crc32 of the bytes above (the container header is its own
//	         checksummed document)
//	P × sampler document (each a complete GPSC KindSampler document with
//	         its own header and checksum, in shard order)
//
// Version gating mirrors the sampler documents: an engine running forward
// decay writes a version-2 container whose shard blobs are version-2
// sampler documents (decay config, landmark, horizon, per-entry event
// times); an undecayed engine writes version 1, byte-identical to earlier
// releases. On restore the container and shard versions must agree, every
// shard must record the same decay config and landmark, and the event
// clock resumes so arrival-order event times continue without a gap.
//
// GPSC window payload (checkpoint.KindWindow, Version4): the same engine
// state for a windowed engine, with the pane chains in the header.
//
//	uvarint  capacity m
//	uvarint  shard count P
//	u64      root seed (the merge seed derives from it)
//	uvarint  pane width
//	uvarint  window
//	uvarint  horizon T
//	P ×      uvarint records (the shard's share of the stream position)
//	         uvarint started flag (0/1)
//	         uvarint active pane index
//	         uvarint retired pane count R
//	         R ×     uvarint retired pane index (ascending, below the active one)
//	                 uvarint vacuous deletions since retirement
//	                 uvarint tombstone count D
//	                 D × uvarint tombstoned edge key (ascending, each an edge
//	                 of the pane's sampler)
//	u32      crc32 of the bytes above
//	P ×      R retired sampler documents (ascending) then the active pane's
//	         sampler document, in shard order
//
// Version3 window documents (the pane-of-engines layout: merged retired
// panes plus a live engine container) restore through decodeLegacyWindow.
//
// Restoring rebuilds each shard sampler bit for bit, so a restored engine
// fed the remaining stream produces merges, snapshots and window queries
// identical to an uninterrupted run — the per-shard RNG states,
// reservoirs, pane chains, the merge seed, and the decay state are all that
// a Parallel's future output depends on. One serialized form per state keeps
// checkpoint → restore → checkpoint byte-identical.

// WriteCheckpoint serializes the whole sharded data plane as a GPSC engine
// document (a window document on a windowed engine) and returns the stream
// position the document covers (every record routed before the internal
// barrier — the count a replaying restore must skip, captured atomically
// with the state itself). It reuses the snapshot machinery: ingestion
// stalls only for the barrier plus the cloning of shards dirtied since the
// last snapshot or checkpoint, and serialization runs on the immutable
// clones after ingestion has resumed (a windowed shard's clone shares its
// immutable retired samplers). Plain shards' blobs are cached against the
// shard epoch and the recorded weight name, so a checkpoint of an idle
// engine serializes nothing and writes the cached bytes straight out —
// CheckpointStats exposes the counters. Windowed shards re-encode every
// time: their blobs hold every retained pane, and caching them would double
// the window's memory. weightName is recorded in every sampler document
// (see core.ResolveWeight).
func (p *Parallel) WriteCheckpoint(w io.Writer, weightName string) (position uint64, err error) {
	p.admit.Lock()
	if p.closed.Load() {
		p.admit.Unlock()
		return 0, fmt.Errorf("engine: WriteCheckpoint on closed Parallel")
	}
	p.barrierLocked()
	p.mu.Lock()
	type job struct {
		idx   int
		ref   *shardRef
		panes *paneChain // the clone's chain, read here: rotations may replace ref.panes
		epoch uint64
	}
	var jobs []job
	blobs := make([][]byte, len(p.shards))
	var wg sync.WaitGroup
	for i, sh := range p.shards {
		position += sh.position() // quiescent after the barrier
		epoch := sh.epoch.Load()
		if sh.panes == nil && sh.ckptBytes != nil && sh.ckptEpoch == epoch && sh.ckptName == weightName {
			blobs[i] = sh.ckptBytes
			p.shardBlobReused++
			continue
		}
		ref, _ := p.acquireCloneLocked(sh, &wg)
		jobs = append(jobs, job{idx: i, ref: ref, panes: ref.panes, epoch: epoch})
		p.shardsEncoded++
	}
	capacity, shards := p.cfg.Capacity, len(p.shards)
	seed, mergeSeed := p.cfg.Seed, p.mergeSeed
	decayed, clock := p.decay, p.clock // stable: producers are excluded by admit
	horizon := p.horizon.Load()
	p.checkpoints++
	p.mu.Unlock()
	wg.Wait() // clones must be complete before ingestion resumes
	p.admit.Unlock()

	// Serialize the dirty shards from their immutable clones, off the lock
	// and in parallel (the clones are independent samplers): ingestion
	// continues while the dominant cost of a checkpoint runs P-wide.
	encStart := time.Now()
	encErrs := make([]error, len(jobs))
	var encWG sync.WaitGroup
	for ji, j := range jobs {
		encWG.Add(1)
		go func(ji int, j job) {
			defer encWG.Done()
			var buf bytes.Buffer
			if err := encodeShard(&buf, j.ref.s, j.panes, weightName); err != nil {
				encErrs[ji] = err
				return
			}
			blobs[j.idx] = buf.Bytes()
			p.met.ckptEncBytes.Observe(uint64(buf.Len()))
		}(ji, j)
	}
	encWG.Wait()
	if len(jobs) > 0 {
		p.met.ckptEncNS.Observe(uint64(time.Since(encStart)))
	}
	encErr := errors.Join(encErrs...)

	p.mu.Lock()
	for _, j := range jobs {
		p.releaseCloneLocked(j.idx, j.ref)
		if encErr == nil && j.panes == nil {
			// Cache the blob against the epoch it was cloned at and the
			// name it records; the next checkpoint reuses it unless the
			// shard moved or the caller renamed the weight since.
			p.shards[j.idx].ckptBytes = blobs[j.idx]
			p.shards[j.idx].ckptEpoch = j.epoch
			p.shards[j.idx].ckptName = weightName
		}
	}
	p.mu.Unlock()
	if encErr != nil {
		return 0, encErr
	}

	var cw *checkpoint.Writer
	if p.win != nil {
		cw = checkpoint.NewWriterVersion(w, checkpoint.KindWindow, checkpoint.Version4)
		cw.Uvarint(uint64(capacity))
		cw.Uvarint(uint64(shards))
		cw.U64(seed)
		cw.Uvarint(p.win.PaneWidth)
		cw.Uvarint(p.win.Window)
		cw.Uvarint(horizon)
		for _, j := range jobs { // every windowed shard has a job
			c, started := j.panes, uint64(0)
			if c.started {
				started = 1
			}
			cw.Uvarint(c.records)
			cw.Uvarint(started)
			cw.Uvarint(c.idx)
			cw.Uvarint(uint64(len(c.retired)))
			for _, r := range c.retired {
				cw.Uvarint(r.idx)
				cw.Uvarint(r.vacuous)
				cw.Uvarint(uint64(len(r.dels)))
				for _, k := range slices.Sorted(maps.Keys(r.dels)) {
					cw.Uvarint(k)
				}
			}
		}
	} else {
		version := byte(checkpoint.Version)
		if decayed {
			version = checkpoint.Version2
		}
		cw = checkpoint.NewWriterVersion(w, checkpoint.KindEngine, version)
		cw.Uvarint(uint64(capacity))
		cw.Uvarint(uint64(shards))
		cw.U64(seed)
		cw.U64(mergeSeed)
		if decayed {
			cw.Uvarint(clock)
		}
	}
	if err := cw.Finish(); err != nil {
		return 0, err
	}
	for _, blob := range blobs {
		if _, err := w.Write(blob); err != nil {
			return 0, err
		}
	}
	return position, nil
}

// encodeShard writes a shard clone's sampler documents: the retired panes
// in ascending order (windowed shards), then the active sampler.
func encodeShard(w io.Writer, s *core.Sampler, panes *paneChain, weightName string) error {
	if panes != nil {
		for _, pn := range panes.retired {
			if err := pn.s.WriteCheckpoint(w, weightName); err != nil {
				return err
			}
		}
	}
	return s.WriteCheckpoint(w, weightName)
}

// samplerDocs decodes the sampler documents a container embeds back to back,
// checking that they all record one weight name.
type samplerDocs struct {
	br      *bufio.Reader
	resolve func(string) (core.WeightFunc, error)
	n       int
	name    string          // weight name of the first document
	fn      core.WeightFunc // its resolved function
}

func (d *samplerDocs) next() (*core.Sampler, error) {
	var name string
	s, err := core.ReadCheckpoint(d.br, func(n string) (core.WeightFunc, error) {
		name = n
		return d.resolve(n)
	})
	if err != nil {
		return nil, err
	}
	if d.n == 0 {
		d.name = name
		d.fn, _ = d.resolve(name) // resolved once more for the engine config
	} else if name != d.name {
		return nil, fmt.Errorf("weight %q disagrees with %q", name, d.name)
	}
	d.n++
	return s, nil
}

// ReadParallelCheckpoint restores a sharded sampler from a GPSC engine
// document, returning the running engine and the weight name recorded in
// the checkpoint. The resolver maps that name to the weight function every
// shard shares (nil means core.ResolveWeight); it must return the function
// the original engine ran, or the restored engine will diverge. The decoder
// is as strict as the sampler decoder it builds on, and additionally
// rejects shard blobs whose capacity, weight name or count disagree with
// the container header.
func ReadParallelCheckpoint(r io.Reader, resolve func(string) (core.WeightFunc, error)) (*Parallel, string, error) {
	return readDocument(bufio.NewReader(r), checkpoint.KindEngine, resolve, true)
}

// ReadWindowedCheckpoint is ReadParallelCheckpoint for a GPSC window
// document; Version3 documents of the earlier pane-of-engines layout restore
// too (see decodeLegacyWindow). It additionally rejects pane indices out of
// order or not below the active pane, tombstones of edges a pane does not
// hold, and geometry disagreements between the header and the embedded
// documents.
func ReadWindowedCheckpoint(r io.Reader, resolve func(string) (core.WeightFunc, error)) (*Parallel, string, error) {
	return readDocument(bufio.NewReader(r), checkpoint.KindWindow, resolve, true)
}

// ReadDocument reads one engine (KindEngine) or window (KindWindow) document
// from br and leaves the reader positioned after it, for the KindMulti
// container that embeds documents back to back; the container decides where
// the byte stream must end.
func ReadDocument(br *bufio.Reader, kind byte, resolve func(string) (core.WeightFunc, error)) (*Parallel, string, error) {
	return readDocument(br, kind, resolve, false)
}

func readDocument(br *bufio.Reader, kind byte, resolve func(string) (core.WeightFunc, error), requireEOF bool) (*Parallel, string, error) {
	if resolve == nil {
		resolve = core.ResolveWeight
	}
	docs := &samplerDocs{br: br, resolve: resolve}
	cr := checkpoint.NewReader(br)
	if err := cr.ExpectKind(kind); err != nil {
		return nil, "", err
	}
	decode := decodeEngine
	if kind == checkpoint.KindWindow {
		decode = decodeWindow
		if cr.Version() == checkpoint.Version3 {
			decode = decodeLegacyWindow
		}
	}
	p, samplers, chains, err := decode(cr, docs)
	if err == nil && requireEOF {
		if _, eof := br.ReadByte(); eof != io.EOF {
			err = fmt.Errorf("engine: trailing bytes after the checkpoint document")
		}
	}
	if err != nil {
		return nil, "", err
	}
	p.cfg.Weight = docs.fn
	if p.win != nil {
		p.win.Weight = docs.fn
	}
	p.restoreShards(samplers, chains)
	return p, docs.name, nil
}

// decodeEngine decodes an engine container whose header cr has read into
// the engine's restored fields and its shard samplers.
func decodeEngine(cr *checkpoint.Reader, docs *samplerDocs) (*Parallel, []*core.Sampler, []*paneChain, error) {
	p := &Parallel{decay: cr.Version() == checkpoint.Version2}
	p.cfg.Capacity = cr.Count("capacity", maxEngineCapacity)
	shards := cr.Count("shard count", maxEngineShards)
	p.cfg.Seed, p.mergeSeed = cr.U64(), cr.U64()
	if p.decay {
		p.clock = cr.Uvarint()
	}
	if err := cr.Finish(); err != nil {
		return nil, nil, nil, err
	}
	if p.cfg.Capacity < 1 || shards < 1 {
		return nil, nil, nil, fmt.Errorf("engine: checkpoint capacity %d or shard count %d is not positive", p.cfg.Capacity, shards)
	}
	// The samplers slice grows only as blobs actually parse, so a forged
	// shard count cannot drive allocation.
	var samplers []*core.Sampler
	want := shardCapacity(p.cfg.Capacity, shards)
	for i := 0; i < shards; i++ {
		s, err := docs.next()
		if err == nil && s.Capacity() != want {
			err = fmt.Errorf("capacity %d, want %d for m=%d P=%d", s.Capacity(), want, p.cfg.Capacity, shards)
		}
		if err == nil && s.Decayed() != p.decay {
			err = fmt.Errorf("decay state disagrees with the container version")
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		samplers = append(samplers, s)
	}
	if !p.decay {
		return p, samplers, nil, nil
	}
	// Under decay every shard must have been boosting against one shared
	// g: same config, same landmark. The engine's landmark pinning is
	// considered done once any shard has a landmark.
	p.cfg.Decay = samplers[0].DecayConfig()
	lm0, set0 := samplers[0].DecayLandmark()
	var t uint64
	for i, s := range samplers {
		if s.DecayConfig() != p.cfg.Decay {
			return nil, nil, nil, fmt.Errorf("engine: shard %d decay config %+v disagrees with shard 0's %+v",
				i, s.DecayConfig(), p.cfg.Decay)
		}
		if lm, set := s.DecayLandmark(); set != set0 || (set && lm != lm0) {
			return nil, nil, nil, fmt.Errorf("engine: shard %d decay landmark (%d,%v) disagrees with shard 0's (%d,%v)",
				i, lm, set, lm0, set0)
		}
		t = max(t, s.DecayHorizon())
	}
	p.landmarked = set0
	p.horizon.Store(t)
	if set0 {
		p.landmarkVal.Store(lm0)
	} else {
		p.landmarkVal.Store(p.cfg.Decay.Landmark)
	}
	return p, samplers, nil, nil
}

// restoreShards installs decoded shard state and starts the consumers. It
// re-derives the per-shard configs the original engine ran with (the
// derivation order from the root seed is fixed: merge seed first, then shard
// seeds) so the supervisor can rebuild a shard from scratch as a last
// resort and windowed shards derive the same pane seeds. baseProcessed
// records the restored stream position — the records such a rebuild would
// lose on top of the ring history.
func (p *Parallel) restoreShards(samplers []*core.Sampler, chains []*paneChain) {
	seeds := randx.New(p.cfg.Seed)
	_ = seeds.Uint64() // merge seed slot in the derivation order
	shardCap := shardCapacity(p.cfg.Capacity, len(samplers))
	p.shards = make([]*shard, len(samplers))
	for i, s := range samplers {
		scfg := core.Config{Capacity: shardCap, Weight: p.cfg.Weight, Seed: seeds.Uint64(), Decay: p.cfg.Decay}
		sh := &shard{ring: newRing(DefaultRingCapacity), s: s, cfg: scfg, baseProcessed: s.Processed()}
		if chains != nil {
			sh.panes = chains[i]
			sh.baseProcessed = chains[i].records
		}
		p.shards[i] = sh
	}
	p.startShards()
}

// Limits on container header fields: generous for any real deployment, but
// they bound what a forged header can claim before shard blobs must back it
// up with real data.
const (
	maxEngineCapacity = (1 << 31) - 1
	maxEngineShards   = 1 << 16
	maxWindowPanes    = 1 << 16 // retired panes per chain
)

// readWindowGeometry reads the window geometry both window layouts start
// with; restoredWindow validates it once the header checksum has passed.
func readWindowGeometry(cr *checkpoint.Reader) WindowConfig {
	return WindowConfig{
		Capacity:  cr.Count("capacity", maxEngineCapacity),
		Shards:    cr.Count("shard count", maxEngineShards),
		Seed:      cr.U64(),
		PaneWidth: cr.Uvarint(),
		Window:    cr.Uvarint(),
	}
}

// restoredWindow returns the restored fields of a windowed engine.
func restoredWindow(cfg WindowConfig, horizon uint64) (*Parallel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("engine: checkpoint shard count %d is not positive", cfg.Shards)
	}
	p := &Parallel{cfg: core.Config{Capacity: cfg.Capacity, Seed: cfg.Seed}, mergeSeed: randx.New(cfg.Seed).Uint64(), win: &cfg}
	p.horizon.Store(horizon)
	return p, nil
}

// checkChain validates a decoded chain's pane indices: ascending, below the
// active pane, and absent until a timed insert has named the active pane.
func checkChain(c *paneChain, started uint64) error {
	if started > 1 {
		return fmt.Errorf("engine: window checkpoint started flag %d is not boolean", started)
	}
	if c.started = started == 1; !c.started && (c.idx != 0 || len(c.retired) > 0) {
		return fmt.Errorf("engine: window checkpoint names panes before the pane clock started")
	}
	for i, r := range c.retired {
		if (i > 0 && r.idx <= c.retired[i-1].idx) || r.idx >= c.idx {
			return fmt.Errorf("engine: window checkpoint pane %d out of order or not older than the active pane %d", r.idx, c.idx)
		}
	}
	return nil
}

// nextPane decodes a retired pane's sampler: per-shard panes hold
// shardCapacity(m, P) edges, panes split from a legacy merged pane hold m,
// and windowed samplers never decay. Its tombstones must name edges it
// holds.
func nextPane(docs *samplerDocs, r *pane, m int) error {
	s, err := docs.next()
	if err == nil && (s.Capacity() > m || s.Decayed()) {
		err = fmt.Errorf("capacity %d above m=%d or decay state in a window pane", s.Capacity(), m)
	}
	for k := range r.dels {
		if err == nil && !s.Reservoir().Contains(graph.EdgeFromKey(k)) {
			err = fmt.Errorf("tombstone %#x names an edge the pane does not hold", k)
		}
	}
	if err != nil {
		return fmt.Errorf("engine: window pane %d: %w", r.idx, err)
	}
	r.s = s
	return nil
}

// decodeWindow decodes the Version4 payload: per-shard pane chains.
func decodeWindow(cr *checkpoint.Reader, docs *samplerDocs) (*Parallel, []*core.Sampler, []*paneChain, error) {
	cfg := readWindowGeometry(cr)
	horizon := cr.Uvarint()
	var (
		chains  []*paneChain
		started []uint64
	)
	for i := 0; i < cfg.Shards && cr.Err() == nil; i++ {
		c := &paneChain{records: cr.Uvarint()}
		started = append(started, cr.Uvarint())
		c.idx = cr.Uvarint()
		for j, n := 0, cr.Count("retired pane count", maxWindowPanes); j < n && cr.Err() == nil; j++ {
			r := pane{idx: cr.Uvarint(), vacuous: cr.Uvarint()}
			var last uint64
			for d, nd := 0, cr.Count("tombstone count", maxEngineCapacity); d < nd && cr.Err() == nil; d++ {
				k := cr.Uvarint()
				if d > 0 && k <= last {
					return nil, nil, nil, fmt.Errorf("engine: window checkpoint tombstones out of order")
				}
				if r.dels == nil {
					r.dels = map[uint64]struct{}{}
				}
				r.dels[k], last = struct{}{}, k
			}
			c.retired = append(c.retired, r)
		}
		chains = append(chains, c)
	}
	if err := cr.Finish(); err != nil {
		return nil, nil, nil, err
	}
	p, err := restoredWindow(cfg, horizon)
	if err != nil {
		return nil, nil, nil, err
	}
	want := shardCapacity(cfg.Capacity, cfg.Shards)
	var samplers []*core.Sampler
	for i, c := range chains {
		if err := checkChain(c, started[i]); err != nil {
			return nil, nil, nil, err
		}
		for j := range c.retired {
			if err := nextPane(docs, &c.retired[j], cfg.Capacity); err != nil {
				return nil, nil, nil, err
			}
		}
		s, err := docs.next()
		if err == nil && (s.Capacity() != want || s.Decayed()) {
			err = fmt.Errorf("capacity %d (want %d for m=%d P=%d) or decay state does not fit the window",
				s.Capacity(), want, cfg.Capacity, cfg.Shards)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("engine: shard %d active pane: %w", i, err)
		}
		samplers = append(samplers, s)
	}
	return p, samplers, chains, nil
}

// decodeLegacyWindow decodes a Version3 window document — merged retired
// panes followed by the live pane's engine container:
//
//	uvarint  capacity m, shard count P; u64 root seed
//	uvarint  pane width, window, processed (stream position), horizon T
//	uvarint  started flag, active pane index, retired pane count R
//	R ×      uvarint pane index (ascending)
//	u32      crc32 of the bytes above
//	R ×      sampler document (a merged pane, capacity m)
//	1 ×      engine document (the live pane, P shards)
//
// Each merged pane is split by ShardOf into per-shard panes through
// core.Split, which draws no randomness and keeps z*, so every entry keeps
// its inclusion probability. The live pane's shard samplers become the
// active panes, and the whole stream position is credited to shard 0.
func decodeLegacyWindow(cr *checkpoint.Reader, docs *samplerDocs) (*Parallel, []*core.Sampler, []*paneChain, error) {
	cfg := readWindowGeometry(cr)
	processed, horizon := cr.Uvarint(), cr.Uvarint()
	started := cr.Uvarint()
	legacy := &paneChain{idx: cr.Uvarint()}
	for i, n := 0, cr.Count("retired pane count", maxWindowPanes); i < n && cr.Err() == nil; i++ {
		legacy.retired = append(legacy.retired, pane{idx: cr.Uvarint()})
	}
	if err := cr.Finish(); err != nil {
		return nil, nil, nil, err
	}
	p, err := restoredWindow(cfg, horizon)
	if err == nil {
		err = checkChain(legacy, started)
	}
	for i := range legacy.retired {
		if err == nil {
			err = nextPane(docs, &legacy.retired[i], cfg.Capacity)
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	ecr := checkpoint.NewReader(docs.br)
	if err := ecr.ExpectKind(checkpoint.KindEngine); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: window live pane: %w", err)
	}
	live, samplers, _, err := decodeEngine(ecr, docs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("engine: window live pane: %w", err)
	}
	if live.cfg.Capacity != cfg.Capacity || len(samplers) != cfg.Shards || live.decay {
		return nil, nil, nil, fmt.Errorf("engine: window live pane geometry (m=%d P=%d) disagrees with the container (m=%d P=%d)",
			live.cfg.Capacity, len(samplers), cfg.Capacity, cfg.Shards)
	}
	chains := make([]*paneChain, cfg.Shards)
	for i := range chains {
		chains[i] = &paneChain{idx: legacy.idx, started: legacy.started}
	}
	chains[0].records = processed
	route := func(e graph.Edge) int { return int(randx.Mix64(e.Key()) % uint64(cfg.Shards)) }
	for _, r := range legacy.retired {
		for i, part := range core.Split(r.s, cfg.Shards, route) {
			chains[i].retired = append(chains[i].retired, pane{idx: r.idx, s: part})
		}
	}
	return p, samplers, chains, nil
}

// CheckpointStats reports cumulative checkpoint counters: checkpoints
// taken, shard blobs freshly serialized, and clean shards whose cached blob
// was reused byte-for-byte. encoded+reused equals checkpoints×Shards().
func (p *Parallel) CheckpointStats() (checkpoints, encoded, reused uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.checkpoints, p.shardsEncoded, p.shardBlobReused
}

// Capacity returns the global reservoir capacity m.
func (p *Parallel) Capacity() int { return p.cfg.Capacity }

// Processed returns the total stream position across shards: every record
// ever routed (distinct arrivals, ignored duplicates and deletions). A
// restore that replays the original stream must skip exactly this many
// records. It synchronizes like Arrivals.
func (p *Parallel) Processed() uint64 {
	p.admit.Lock()
	defer p.admit.Unlock()
	p.barrierLocked()
	var total uint64
	for _, sh := range p.shards {
		total += sh.position()
	}
	return total
}

// position is the shard's share of the stream position: the records a
// windowed shard drained, or its sampler's Processed.
func (sh *shard) position() uint64 {
	if sh.panes != nil {
		return sh.panes.records
	}
	return sh.s.Processed()
}

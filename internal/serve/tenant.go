// Tenant construction and restore: the one place in the serving layer that
// names the concrete engine constructors and readers. Everything else in
// the package programs against engine.Stream, so the per-stream capability
// branches (windowed vs plain, decayed vs not) happen on data the interface
// reports — never on dynamic types. A grep-gated test enforces the boundary.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/obs"
)

// defaultStream is the stream every un-parameterized request addresses: a
// single-tenant deployment never has to know the registry exists.
const defaultStream = "default"

// maxCheckpointStreams bounds the stream count a multi-stream checkpoint
// directory may claim, so a forged header cannot drive an unbounded loop.
const maxCheckpointStreams = 1 << 10

// StreamSpec declares one named stream: the per-stream knobs of Config,
// JSON-shaped so the same struct serves the gps-serve -streams manifest and
// the POST /v1/streams/{name} body. Zero fields inherit the server's
// defaults; setting window or half_life replaces the server's time model
// for this stream outright instead of mixing with it.
type StreamSpec struct {
	Name       string  `json:"name"`
	Capacity   int     `json:"capacity,omitempty"`
	Weight     string  `json:"weight,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	HalfLife   float64 `json:"half_life,omitempty"`
	Window     uint64  `json:"window,omitempty"`
	PaneWidth  uint64  `json:"pane_width,omitempty"`
	QueueDepth int     `json:"queue_depth,omitempty"`
}

// tenant is one named stream: its engine, its ingest queue and loop, its
// snapshot cache and SSE hub, and every per-stream counter the handlers and
// telemetry read. (Named tenant, not stream — the package already imports
// gps/internal/stream.) The default tenant carries no metric label, which
// keeps a single-tenant server's /metrics output byte-identical to the
// pre-registry releases; every other tenant's samples are labeled
// {stream="name"} within the same families.
type tenant struct {
	name  string
	label []obs.Label // nil for the default stream
	cfg   Config      // per-stream effective configuration
	eng   engine.Stream
	snaps *snapshotCache
	subs  *subHub

	queue    chan ingestItem
	tdone    chan struct{} // closed when the stream is deleted
	loopDone chan struct{} // closed when the ingest loop has drained and exited
	deleted  atomic.Bool

	edgesAccepted  atomic.Uint64 // edges admitted to the queue
	edgesProcessed atomic.Uint64 // edges handed to the sampler (restored position on boot)
	batchesDropped atomic.Uint64 // ingest requests rejected by backpressure
	selfLoops      atomic.Uint64 // self-loop records skipped by the readers
	deletionRecs   atomic.Uint64 // turnstile deletion records accepted for ingest
	decayMode      atomic.Int32  // 0 undecided, 1 event-timed, 2 untimed (decayed streams only)
	pendingEdges   atomic.Int64
	pendingBatches atomic.Int64

	// At-least-once ingest dedup: the highest sequence number acknowledged
	// per X-GPS-Source, guarded by seqMu. Per stream, so two tenants fed by
	// clients that happen to share a source name cannot dedup each other.
	seqMu   sync.Mutex
	seqSeen map[string]uint64

	// Degradation and overload telemetry.
	inflightQueries  atomic.Int64
	shedTotal        atomic.Uint64 // requests shed by overload protection
	degradedQueries  atomic.Uint64 // estimate responses flagged degraded
	duplicateBatches atomic.Uint64 // ingest batches deduplicated by sequence
	ingestPanics     atomic.Uint64 // panics recovered in the ingest loop

	restoredPosition uint64 // stream position carried by the restoring checkpoint

	met serveMetrics
}

// windowed reports whether the tenant runs the sliding-window time model —
// the capability branch every handler takes instead of a type switch.
func (t *tenant) windowed() bool {
	_, ok := t.eng.WindowSpec()
	return ok
}

// newTenantState wires the per-stream machinery around an engine: the
// bounded queue, the snapshot cache (positioned at the restored stream
// position, so the cache's "provably current" check survives a restart),
// the SSE hub fed by snapshot installs, and the instruments the registry
// attaches later (created here so handlers never race a nil histogram).
func newTenantState(name string, cfg Config, eng engine.Stream, restoredPosition uint64) *tenant {
	t := &tenant{
		name:             name,
		cfg:              cfg,
		eng:              eng,
		subs:             newSubHub(),
		queue:            make(chan ingestItem, cfg.QueueDepth),
		tdone:            make(chan struct{}),
		loopDone:         make(chan struct{}),
		seqSeen:          make(map[string]uint64),
		restoredPosition: restoredPosition,
	}
	if name != defaultStream {
		t.label = []obs.Label{{Key: "stream", Value: name}}
	}
	t.edgesProcessed.Store(restoredPosition)
	t.met.snapAge = obs.NewHistogram(obs.Latency())
	t.met.decayRejects = obs.NewCounter()
	if t.windowed() {
		// Windowed queries merge panes fresh per request; the cache exists
		// only so its metric families and telemetry readers stay uniform.
		t.snaps = newSnapshotCache(func() (*core.Sampler, error) {
			return nil, errors.New("serve: windowed mode has no standing snapshot")
		}, t.edgesProcessed.Load, nil)
	} else {
		t.snaps = newSnapshotCache(eng.Snapshot, t.edgesProcessed.Load, eng.Degraded)
	}
	t.snaps.onInstall = t.subs.broadcast
	return t
}

// streamConfig resolves a StreamSpec against the server's defaults into the
// effective per-stream Config, validating the same invariants NewServer
// enforces for the default stream.
func (s *Server) streamConfig(spec StreamSpec) (Config, error) {
	cfg := s.cfg
	cfg.Streams = nil
	cfg.RestoreFrom = ""
	if spec.Capacity > 0 {
		cfg.Capacity = spec.Capacity
	}
	if spec.Weight != "" {
		wfn, err := WeightByName(spec.Weight)
		if err != nil {
			return Config{}, fmt.Errorf("stream %q: %w", spec.Name, err)
		}
		cfg.Weight, cfg.WeightName = wfn, spec.Weight
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Shards > 0 {
		cfg.Shards = spec.Shards
	}
	if spec.QueueDepth > 0 {
		cfg.QueueDepth = spec.QueueDepth
	}
	if spec.Window > 0 || spec.HalfLife > 0 || spec.PaneWidth > 0 {
		// The spec names a time model: it replaces the server's default one
		// wholesale (half-life and window would otherwise leak across).
		cfg.Window, cfg.PaneWidth, cfg.HalfLife = spec.Window, spec.PaneWidth, spec.HalfLife
	}
	if cfg.Window > 0 {
		if cfg.HalfLife > 0 {
			return Config{}, fmt.Errorf("stream %q: window and half_life are mutually exclusive (both reweight time)", spec.Name)
		}
		if cfg.PaneWidth == 0 {
			cfg.PaneWidth = cfg.Window
		}
	} else if cfg.PaneWidth != 0 {
		return Config{}, fmt.Errorf("stream %q: pane_width requires window > 0", spec.Name)
	}
	return cfg, nil
}

// newTenant constructs a fresh stream from its effective config — the one
// constructor site where the time model is chosen.
func newTenant(name string, cfg Config) (*tenant, error) {
	var (
		eng *engine.Parallel
		err error
	)
	if cfg.Window > 0 {
		eng, err = engine.NewWindowed(engine.WindowConfig{
			Capacity:  cfg.Capacity,
			Weight:    cfg.Weight,
			Seed:      cfg.Seed,
			Shards:    cfg.Shards,
			PaneWidth: cfg.PaneWidth,
			Window:    cfg.Window,
		})
	} else {
		eng, err = engine.NewParallel(core.Config{
			Capacity: cfg.Capacity,
			Weight:   cfg.Weight,
			Seed:     cfg.Seed,
			Decay:    core.Decay{HalfLife: cfg.HalfLife},
		}, cfg.Shards)
	}
	if err != nil {
		return nil, err
	}
	cfg.Shards = eng.Shards() // resolve the <=0 GOMAXPROCS default
	return newTenantState(name, cfg, eng, 0), nil
}

// restoredTenant wraps an engine restored from a checkpoint document. The
// document's configuration wins over cfg — restored reservoirs are only
// meaningful under the capacity, weight, shards and time model they were
// taken with.
func restoredTenant(name string, cfg Config, eng *engine.Parallel, weightName string) *tenant {
	cfg.Capacity = eng.Capacity()
	cfg.Shards = eng.Shards()
	cfg.HalfLife = eng.Decay().HalfLife
	cfg.Window, cfg.PaneWidth = 0, 0
	if wc, ok := eng.WindowSpec(); ok {
		cfg.Seed, cfg.Window, cfg.PaneWidth = wc.Seed, wc.Window, wc.PaneWidth
	}
	cfg.WeightName = weightName
	cfg.Weight, _ = WeightByName(weightName)
	return newTenantState(name, cfg, eng, eng.Processed())
}

// peekKind sniffs the GPSC document kind without consuming the reader, so
// restore can dispatch between the single-stream readers and the
// multi-stream container while the full header stays in place for them.
func peekKind(br *bufio.Reader) (byte, error) {
	hdr, err := br.Peek(6) // "GPSC" + version + kind
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return hdr[5], nil
}

// restoreSingle restores a single-stream checkpoint into the default
// tenant, preserving the pre-registry dispatch: the server's configured
// time model (not the file) picks the reader, so restoring a plain engine
// document into a -window server fails loudly instead of silently changing
// the time model.
func restoreSingle(br *bufio.Reader, cfg Config) (*tenant, error) {
	read := engine.ReadParallelCheckpoint
	if cfg.Window > 0 {
		read = engine.ReadWindowedCheckpoint
	}
	eng, weightName, err := read(br, WeightByName)
	if err != nil {
		return nil, err
	}
	return restoredTenant(defaultStream, cfg, eng, weightName), nil
}

// restoreMulti restores a KindMulti container: a Version3 directory
// document naming each stream and its engine kind, followed by the streams'
// ordinary engine/window documents back to back on the same reader. Each
// stream's configuration is recovered from its own document, exactly as a
// single-stream restore would; base supplies the server-wide fields
// (queue depth, body limits) every tenant shares. On error the engines
// already restored are closed.
func restoreMulti(br *bufio.Reader, base Config) (tenants []*tenant, err error) {
	r := checkpoint.NewReader(br)
	if err := r.ExpectKind(checkpoint.KindMulti); err != nil {
		return nil, err
	}
	n := r.Count("stream", maxCheckpointStreams)
	type entry struct {
		name string
		kind byte
	}
	entries := make([]entry, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		name := r.String()
		kind := byte(r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !validStreamName(name) {
			return nil, fmt.Errorf("checkpoint: multi-stream directory names invalid stream %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("checkpoint: multi-stream directory lists stream %q twice", name)
		}
		seen[name] = true
		entries = append(entries, entry{name, kind})
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			for _, t := range tenants {
				t.eng.Close()
			}
			tenants = nil
		}
	}()
	for _, e := range entries {
		cfg := base
		cfg.Streams = nil
		cfg.RestoreFrom = ""
		if e.kind != checkpoint.KindEngine && e.kind != checkpoint.KindWindow {
			return nil, fmt.Errorf("checkpoint: multi-stream directory lists stream %q with unknown kind %#x", e.name, e.kind)
		}
		eng, weightName, err := engine.ReadDocument(br, e.kind, WeightByName)
		if err != nil {
			return nil, fmt.Errorf("stream %q: %w", e.name, err)
		}
		tenants = append(tenants, restoredTenant(e.name, cfg, eng, weightName))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("checkpoint: trailing bytes after %d stream documents", len(tenants))
	}
	return tenants, nil
}

// writeMultiCheckpoint serializes several streams as one KindMulti
// container: the directory document (names and kinds, CRC-protected on its
// own), then each stream's ordinary checkpoint document back to back. The
// returned position is the sum of the per-stream positions, so checkpoint
// file names still order by total coverage.
func writeMultiCheckpoint(w io.Writer, tenants []*tenant) (position uint64, err error) {
	cw := checkpoint.NewWriterVersion(w, checkpoint.KindMulti, checkpoint.Version3)
	cw.Uvarint(uint64(len(tenants)))
	for _, t := range tenants {
		cw.String(t.name)
		kind := uint64(checkpoint.KindEngine)
		if t.windowed() {
			kind = checkpoint.KindWindow
		}
		cw.Uvarint(kind)
	}
	if err := cw.Finish(); err != nil {
		return 0, err
	}
	for _, t := range tenants {
		pos, err := t.eng.WriteCheckpoint(w, t.cfg.WeightName)
		if err != nil {
			return 0, fmt.Errorf("stream %q: %w", t.name, err)
		}
		position += pos
	}
	return position, nil
}

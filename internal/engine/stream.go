package engine

import (
	"io"
	"time"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/obs"
)

// Stream is the engine abstraction the serving layer programs against: one
// live sampled graph stream, whatever its time model. Parallel is its one
// implementation — plain, forward-decayed (NewParallel with Decay) or
// windowed (NewWindowed) — and a server hosts any mix of them behind one
// registry, branching on what the accessors report, never on types. The
// methods are documented on Parallel.
type Stream interface {
	// The data plane. Windowed engines have no standing Snapshot (each
	// Estimate merges the panes afresh); plain engines answer no Estimate.
	// ProcessBatch reports a closed windowed engine as an error.
	Process(e graph.Edge)
	ProcessBatch(edges []graph.Edge) error
	Snapshot() (*core.Sampler, error)
	Estimate(win uint64) (WindowEstimates, error)
	WriteCheckpoint(w io.Writer, weightName string) (position uint64, err error)
	Close()

	// Positions and verdicts; each barriers the live data plane. Arrivals
	// is the stream position on a windowed engine.
	Arrivals() uint64
	Processed() uint64
	Deletions() (applied, unsampled uint64)

	// Telemetry for scrapes and /v1/stats.
	CheckpointStats() (checkpoints, encoded, reused uint64)
	SnapshotStats() (snapshots, cloned, reused uint64)
	LastSnapshotStall() time.Duration
	RingStats() RingStats
	Shards() int
	Capacity() int
	Health() (shards []ShardHealth, degraded bool)
	Restarts() uint64
	LostEdges() uint64
	Degraded() bool
	RegisterMetrics(reg *obs.Registry, labels ...obs.Label)

	// Capability accessors: the time model, with zero values (ok=false)
	// on engines that lack it.
	Decay() core.Decay
	DecayLandmark() (landmark uint64, ok bool)
	WindowSpec() (cfg WindowConfig, ok bool)
	Panes() int
	Horizon() uint64
}

var _ Stream = (*Parallel)(nil)

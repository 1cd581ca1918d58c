package engine

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"gps/internal/core"
	"gps/internal/fault"
	"gps/internal/gen"
	"gps/internal/graph"
)

// armFaults arms a fault spec for the duration of the test, skipping
// under gps_nofault where the injection sites are compiled out.
func armFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("fault spec %q: %v", spec, err)
	}
	fault.Arm(seed, rules)
	t.Cleanup(fault.Disarm)
	if !fault.Enabled() {
		t.Skip("fault injection compiled out (gps_nofault)")
	}
}

// TestSupervisorExactRecovery is the headline self-healing property: a
// shard that panics with its last clone at the current consumer position
// restores from the clone, replays the ring backlog, and ends bit-identical
// to a run that never panicked.
func TestSupervisorExactRecovery(t *testing.T) {
	stream := testStream(500, 6000, 0xFA01)
	cfg := core.Config{Capacity: 400, Seed: 11}

	// Fault-free twin.
	want, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, wantA := signature(t, wm)

	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:3000])
	// Snapshot clones the shard at position 3000 with the ring drained:
	// cloneHead == head, so the very next drained span can be recovered
	// exactly.
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[3000:])
	m, err := p.Merge() // barriers wait out the recovery + replay
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()

	keys, z, a := signature(t, m)
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() || p.LostEdges() != 0 {
		t.Fatalf("exact recovery left engine degraded (lost=%d)", p.LostEdges())
	}
	if z != wantZ || a != wantA || len(keys) != len(wantKeys) {
		t.Fatalf("recovered run differs: z %v vs %v, arrivals %d vs %d, len %d vs %d",
			z, wantZ, a, wantA, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("recovered run differs at sampled edge %d", i)
		}
	}
	health, degraded := p.Health()
	if degraded || len(health) != 1 || health[0].Restarts != 1 {
		t.Fatalf("Health() = %+v degraded=%v, want 1 restart, not degraded", health, degraded)
	}
	if !strings.Contains(health[0].LastPanic, "engine.shard.drain") {
		t.Fatalf("LastPanic = %q, want the injected point name", health[0].LastPanic)
	}
}

// TestSupervisorExactScratchRebuild: a panic on the very first span ever
// drained (no clone, head still 0) rebuilds from scratch but loses
// nothing — the fresh sampler is seeded like the original and the whole
// backlog replays, so the run stays bit-identical and undegraded.
func TestSupervisorExactScratchRebuild(t *testing.T) {
	stream := testStream(300, 3000, 0xFA07)
	cfg := core.Config{Capacity: 200, Seed: 5}
	want, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, wantA := signature(t, wm)

	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream)
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() || p.LostEdges() != 0 {
		t.Fatalf("zero-loss scratch rebuild flagged lossy (degraded=%v lost=%d)",
			p.Degraded(), p.LostEdges())
	}
	keys, z, a := signature(t, m)
	if z != wantZ || a != wantA || len(keys) != len(wantKeys) {
		t.Fatalf("rebuilt run differs: z %v vs %v, arrivals %d vs %d, len %d vs %d",
			z, wantZ, a, wantA, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("rebuilt run differs at sampled edge %d", i)
		}
	}
}

// TestSupervisorLossyRecovery: a shard that panics with no clone to
// restore from rebuilds from scratch — the engine stays up and serving,
// but reports the loss: degraded, lost edges, and a restart.
func TestSupervisorLossyRecovery(t *testing.T) {
	stream := testStream(300, 3000, 0xFA02)
	p, err := NewParallel(core.Config{Capacity: 200, Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:1000])
	if got := p.Arrivals(); got != 1000 {
		t.Fatalf("arrivals before fault = %d", got)
	}
	// No snapshot was ever taken, so recovery falls back to a fresh
	// sampler: everything drained so far is lost.
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[1000:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if !p.Degraded() {
		t.Fatal("lossy recovery did not degrade the engine")
	}
	if lost := p.LostEdges(); lost != 1000 {
		t.Fatalf("lost = %d, want the 1000 drained-then-unrecoverable edges", lost)
	}
	// The rebuilt shard processed exactly the replayed backlog.
	if got := m.Arrivals(); got != uint64(len(stream)-1000) {
		t.Fatalf("post-recovery arrivals = %d, want %d", got, len(stream)-1000)
	}
	if _, degraded := p.Health(); !degraded {
		t.Fatal("Health() does not report degradation")
	}
}

// TestSupervisorQuarantine: a deterministically poisonous backlog (the
// injected panic fires on every replay) is quarantined after
// maxPanicStreak consecutive failures instead of looping forever; fresh
// traffic flows afterwards.
func TestSupervisorQuarantine(t *testing.T) {
	stream := testStream(300, 3000, 0xFA03)
	p, err := NewParallel(core.Config{Capacity: 200, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:500])
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Exactly maxPanicStreak firings: every replay of the poisoned span
	// panics again until the streak trips quarantine.
	armFaults(t, 1, "engine.shard.drain:panic:times=8")
	p.ProcessBatch(stream[500:1000])
	if got := p.Arrivals(); got != 500 {
		t.Fatalf("arrivals after quarantine = %d, want the pre-fault 500 (backlog dropped)", got)
	}
	fault.Disarm()
	if p.Restarts() != maxPanicStreak {
		t.Fatalf("restarts = %d, want %d", p.Restarts(), maxPanicStreak)
	}
	if !p.Degraded() {
		t.Fatal("quarantine did not degrade the engine")
	}
	if lost := p.LostEdges(); lost != 500 {
		t.Fatalf("lost = %d, want the 500 quarantined edges", lost)
	}
	// The shard keeps serving fresh traffic after quarantine.
	p.ProcessBatch(stream[1000:1500])
	if got := p.Arrivals(); got != 1000 {
		t.Fatalf("arrivals after fresh traffic = %d, want 1000", got)
	}
}

// TestSupervisorRecoveryWithDecay: the from-scratch rebuild path must
// re-pin the decay landmark or decayed admission would panic on the
// rebuilt sampler.
func TestSupervisorRecoveryWithDecay(t *testing.T) {
	stream := testStream(200, 2000, 0xFA04)
	cfg := core.Config{Capacity: 150, Seed: 13, Decay: core.Decay{HalfLife: 500}}
	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:800])
	// Barrier: drain the first batch so the rebuild demonstrably loses it
	// (a panic before anything drained would recover exactly instead).
	if got := p.Arrivals(); got != 800 {
		t.Fatalf("arrivals before fault = %d", got)
	}
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[800:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if !p.Degraded() {
		t.Fatal("scratch rebuild should degrade")
	}
	if lm, ok := m.DecayLandmark(); !ok || lm != 1 {
		t.Fatalf("rebuilt sampler landmark = (%d,%v), want the pinned arrival clock 1", lm, ok)
	}
}

// TestSupervisorMultiShardIsolation: a panic on one shard leaves the
// other shards' samplers untouched.
func TestSupervisorMultiShardIsolation(t *testing.T) {
	stream := testStream(500, 6000, 0xFA05)
	p, err := NewParallel(core.Config{Capacity: 400, Seed: 17}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:3000])
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// One firing: exactly one shard panics (whichever drains first); its
	// exact recovery keeps the merged result bit-identical.
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[3000:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() {
		t.Fatal("exact multi-shard recovery should not degrade")
	}

	want, err := NewParallel(core.Config{Capacity: 400, Seed: 17}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, _ := signature(t, wm)
	keys, z, _ := signature(t, m)
	if z != wantZ || len(keys) != len(wantKeys) {
		t.Fatalf("merged sample diverged after recovery: z %v vs %v, len %d vs %d", z, wantZ, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("merged sample diverged at edge %d", i)
		}
	}
}

// TestSupervisorWindowedExactRecovery: a windowed shard panics mid-span —
// after the span has fanned a deletion out to the shard's retired panes and
// rotated its active pane — with its last clone at the current consumer
// position. Restoring the clone's whole pane chain and replaying the span
// must reproduce the fault-free run bit for bit: window answers, deletion
// verdicts and checkpoint bytes.
func TestSupervisorWindowedExactRecovery(t *testing.T) { testSupervisorWindowed(t, false) }

// TestSupervisorWindowedLossyRecovery: the same panic after records were
// drained past the clone. Those records are lost: the engine counts them
// and reports itself degraded, as for a plain shard.
func TestSupervisorWindowedLossyRecovery(t *testing.T) { testSupervisorWindowed(t, true) }

func testSupervisorWindowed(t *testing.T, lossy bool) {
	base := dedupeEdges(gen.HolmeKim(300, 5, 0.4, 0xFA0B))
	records, _ := turnstileWindowStream(base, 60)
	span := uint64(len(base))
	cut, from := len(records)/2, len(records)/2
	if lossy {
		from += 40 // drained after the clone, before the panic
	}

	// The panic comes from the weight function, on the first insert of
	// the poisoned shard that follows a deletion and a pane crossing in the
	// records after from.
	var (
		armed  atomic.Bool
		poison uint64
	)
	weight := func(e graph.Edge, r *core.Reservoir) float64 {
		if e.Key() == poison && armed.CompareAndSwap(true, false) {
			panic("poisoned weight")
		}
		return core.TriangleWeight(e, r)
	}
	cfg := WindowConfig{Capacity: 120, Weight: weight, Seed: 23, Shards: 2, PaneWidth: span / 10, Window: span / 2}
	w, err := NewWindowed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	twin, err := NewWindowed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	shard := -1
	for s := 0; s < 2 && shard < 0; s++ {
		var active uint64
		for _, e := range records[:from] {
			if !e.Del && w.ShardOf(e) == s {
				active = max(active, e.TS/cfg.PaneWidth)
			}
		}
		sawDel, sawRotation := false, false
		for _, e := range records[from:] {
			switch {
			case w.ShardOf(e) != s:
			case e.Del:
				sawDel = true
			case e.TS/cfg.PaneWidth > active:
				active, sawRotation = e.TS/cfg.PaneWidth, true
			case sawDel && sawRotation:
				poison, shard = e.Key(), s
			}
			if shard >= 0 {
				break
			}
		}
	}
	if shard < 0 {
		t.Fatal("no shard sees a deletion and a rotation before an insert")
	}

	for _, e := range []*Parallel{w, twin} {
		if err := e.ProcessBatch(records[:cut]); err != nil {
			t.Fatal(err)
		}
		// The checkpoint barrier clones every shard with the rings drained:
		// the clone anchor sits at the consumer position.
		if _, err := e.WriteCheckpoint(io.Discard, "triangle"); err != nil {
			t.Fatal(err)
		}
		if err := e.ProcessBatch(records[cut:from]); err != nil {
			t.Fatal(err)
		}
		e.Arrivals() // drain the gap, if any, past the anchor
	}
	if len(w.shards[shard].panes.retired) == 0 {
		t.Fatal("poisoned shard has no retired panes to fan the deletion out to")
	}
	if err := twin.ProcessBatch(records[from:]); err != nil {
		t.Fatal(err)
	}
	twin.Arrivals() // the twin must score the poison unarmed
	armed.Store(true)
	if err := w.ProcessBatch(records[from:]); err != nil {
		t.Fatal(err)
	}
	var lost uint64 // records of the poisoned shard drained past the anchor
	for _, e := range records[cut:from] {
		if w.ShardOf(e) == shard {
			lost++
		}
	}
	if got, want := w.Arrivals(), uint64(len(records))-lost; got != want {
		t.Fatalf("stream position %d after recovery, want %d", got, want)
	}
	if armed.Load() {
		t.Fatal("the poisoned insert was never scored")
	}
	if w.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", w.Restarts())
	}

	if lossy {
		health, degraded := w.Health()
		if !degraded || !health[shard].Degraded || w.LostEdges() != lost {
			t.Fatalf("lossy recovery: degraded=%v health=%+v lost=%d, want degraded shard %d with %d lost",
				degraded, health, w.LostEdges(), shard, lost)
		}
		return
	}
	if w.Degraded() || w.LostEdges() != 0 {
		t.Fatalf("exact recovery left the engine degraded (lost=%d)", w.LostEdges())
	}
	for _, win := range []uint64{0, cfg.Window / 2} {
		a, err := w.Estimate(win)
		if err != nil {
			t.Fatal(err)
		}
		b, err := twin.Estimate(win)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("window %d diverged after recovery:\n%+v\n%+v", win, a, b)
		}
	}
	aA, aU := w.Deletions()
	bA, bU := twin.Deletions()
	if aA != bA || aU != bU {
		t.Fatalf("deletion verdicts diverged after recovery: %d/%d vs %d/%d", aA, aU, bA, bU)
	}
	var got, want bytes.Buffer
	if _, err := w.WriteCheckpoint(&got, "triangle"); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.WriteCheckpoint(&want, "triangle"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("checkpoint after exact recovery differs from the fault-free run")
	}
}

package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/randx"
	"gps/internal/stats"
)

// dedupeEdges keeps the first occurrence of every edge key, so each edge is
// inserted exactly once — pane samples stay disjoint and merge-exact.
func dedupeEdges(es []graph.Edge) []graph.Edge {
	seen := map[uint64]bool{}
	var out []graph.Edge
	for _, e := range es {
		if !seen[e.Key()] {
			seen[e.Key()] = true
			out = append(out, e)
		}
	}
	return out
}

// turnstileWindowStream builds a timed turnstile stream: every base edge is
// inserted at TS = position+1, and every 7th position also emits a deletion
// of the edge inserted lag positions earlier. Returns the records and the
// set of deleted edge keys (each edge is deleted at most once).
func turnstileWindowStream(base []graph.Edge, lag int) (records []graph.Edge, deleted map[uint64]bool) {
	deleted = map[uint64]bool{}
	for i, e := range base {
		ts := uint64(i + 1)
		records = append(records, e.At(ts))
		if i%7 == 3 && i >= lag {
			victim := base[i-lag]
			if !deleted[victim.Key()] {
				deleted[victim.Key()] = true
				records = append(records, victim.At(ts).AsDeletion())
			}
		}
	}
	return records, deleted
}

// survivorsOf filters base down to the edges never deleted, keeping their
// insertion timestamps — the ground-truth turnstile graph.
func survivorsOf(base []graph.Edge, deleted map[uint64]bool) []graph.Edge {
	var out []graph.Edge
	for i, e := range base {
		if !deleted[e.Key()] {
			out = append(out, e.At(uint64(i+1)))
		}
	}
	return out
}

// TestWindowedQueryExactWhenSaturated: with pane capacity above the stream
// size nothing is ever evicted (every q = 1), so a window query must return
// the *exact* triangle/wedge/edge counts of the surviving in-window
// subgraph — across several window widths, with rotations, deletions and a
// late arrival in play. This pins the full query path (pane retention,
// boundary trimming by stored event time, merge, HT estimation) against
// exact.Windowed ground truth.
func TestWindowedQueryExactWhenSaturated(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(120, 4, 0.5, 0x51D))
	records, deleted := turnstileWindowStream(base, 40)
	span := uint64(len(base))

	w, err := NewWindowed(WindowConfig{
		Capacity:  len(base) + 50,
		Seed:      7,
		Shards:    2,
		PaneWidth: span / 12,
		Window:    span / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Feed in uneven chunks so pane crossings land mid-batch.
	for i := 0; i < len(records); i += 37 {
		end := i + 37
		if end > len(records) {
			end = len(records)
		}
		if err := w.ProcessBatch(records[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := w.Processed(), uint64(len(records)); got != want {
		t.Fatalf("Processed = %d, want %d", got, want)
	}
	if got := w.Horizon(); got != span {
		t.Fatalf("Horizon = %d, want %d", got, span)
	}

	survivors := survivorsOf(base, deleted)
	for _, win := range []uint64{w.win.Window, w.win.Window / 2, w.win.PaneWidth + 3} {
		est, err := w.Estimate(win)
		if err != nil {
			t.Fatal(err)
		}
		wantEdges, wantTri, wantWedge := exact.Windowed(survivors, win, span)
		if est.Triangles != float64(wantTri) || est.Wedges != float64(wantWedge) || est.Edges != float64(wantEdges) {
			t.Fatalf("window %d: estimates (tri=%v wedge=%v edges=%v), exact (%d, %d, %d)",
				win, est.Triangles, est.Wedges, est.Edges, wantTri, wantWedge, wantEdges)
		}
		if est.Window != win || est.Horizon != span {
			t.Fatalf("window %d: geometry = (%d, %d), want (%d, %d)", win, est.Window, est.Horizon, win, span)
		}
	}

	// A late arrival — event time far behind the live pane — must still
	// count toward exactly the windows its stored timestamp belongs to.
	late := graph.NewEdgeAt(2000, 2001, span-w.win.PaneWidth)
	if err := w.ProcessBatch([]graph.Edge{late}); err != nil {
		t.Fatal(err)
	}
	est, err := w.Estimate(w.win.Window)
	if err != nil {
		t.Fatal(err)
	}
	wantWide, _, _ := exact.Windowed(append(survivors, late), w.win.Window, span)
	if est.Edges != float64(wantWide) {
		t.Fatalf("late arrival not counted: edges %v, want %d", est.Edges, wantWide)
	}
	// ... and not toward a window too narrow to contain it: the stored event
	// time, not the pane it physically landed in, decides membership.
	narrow := span - late.TS // window ending at span that excludes TS = late.TS
	estNarrow, err := w.Estimate(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wantNarrow, _, _ := exact.Windowed(survivors, narrow, span)
	if estNarrow.Edges != float64(wantNarrow) {
		t.Fatalf("late arrival leaked into a narrow window: edges %v, want %d", estNarrow.Edges, wantNarrow)
	}
}

// TestWindowedDeterministic: the whole windowed run — rotations, deletion
// fan-out, query merge — is a pure function of (Seed, stream order,
// Shards); a second run over the same records must answer every query with
// identical bits.
func TestWindowedDeterministic(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(300, 5, 0.4, 0xDE7))
	records, _ := turnstileWindowStream(base, 60)
	span := uint64(len(base))
	cfg := WindowConfig{Capacity: 150, Weight: core.TriangleWeight, Seed: 99, Shards: 3,
		PaneWidth: span / 10, Window: span / 2}

	run := func() (WindowEstimates, WindowEstimates) {
		w, err := NewWindowed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for i := 0; i < len(records); i += 53 {
			end := i + 53
			if end > len(records) {
				end = len(records)
			}
			if err := w.ProcessBatch(records[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		full, err := w.Estimate(0)
		if err != nil {
			t.Fatal(err)
		}
		half, err := w.Estimate(cfg.Window / 2)
		if err != nil {
			t.Fatal(err)
		}
		return full, half
	}
	f1, h1 := run()
	f2, h2 := run()
	if f1 != f2 || h1 != h2 {
		t.Fatalf("windowed run not deterministic:\n%+v\n%+v\n%+v\n%+v", f1, f2, h1, h2)
	}
	if f1.Window != cfg.Window {
		t.Fatalf("Query(0) used window %d, want the configured maximum %d", f1.Window, cfg.Window)
	}
}

// TestWindowedRetentionBound: the pane chain stays bounded by the window
// geometry no matter how long the stream runs — retired panes that can no
// longer intersect any admissible window are dropped at rotation.
func TestWindowedRetentionBound(t *testing.T) {
	w, err := NewWindowed(WindowConfig{Capacity: 32, Seed: 5, Shards: 1, PaneWidth: 10, Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	maxPanes := int(w.win.Window/w.win.PaneWidth) + 2 // in-window panes + boundary + live
	rng := randx.New(0xBEE)
	for ts := uint64(1); ts < 2000; ts++ {
		u := graph.NodeID(rng.Intn(500))
		v := graph.NodeID(rng.Intn(500))
		if u == v {
			continue
		}
		if err := w.ProcessBatch([]graph.Edge{graph.NewEdgeAt(u, v, ts)}); err != nil {
			t.Fatal(err)
		}
		if got := w.Panes(); got > maxPanes {
			t.Fatalf("at ts=%d: %d panes retained, bound is %d", ts, got, maxPanes)
		}
	}
	if got := w.Panes(); got < 4 {
		t.Fatalf("final pane count %d — retention dropped panes still inside the window", got)
	}
}

// TestWindowedCrashRestartEquivalence is the durability tentpole for
// windowed runs: checkpoint → restore must be invisible — the restored
// chain answers queries bit-identically, evolves bit-identically through
// the identical turnstile suffix, and re-encodes byte-identically. The
// triangle case guards the event-time round trip: pane samplers write v3
// documents, and if those dropped stored TS values (as they once did) the
// restored chain could never trim rotated panes, so post-suffix window
// queries would silently diverge.
func TestWindowedCrashRestartEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight core.WeightFunc
	}{{"uniform", nil}, {"triangle", core.TriangleWeight}} {
		t.Run(tc.name, func(t *testing.T) {
			base := dedupeEdges(gen.HolmeKim(250, 5, 0.4, 0xC5A))
			records, _ := turnstileWindowStream(base, 50)
			span := uint64(len(base))
			cfg := WindowConfig{Capacity: 120, Weight: tc.weight, Seed: 41,
				Shards: 2, PaneWidth: span / 8, Window: span / 2}

			w, err := NewWindowed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cut := (len(records) * 2) / 3
			if err := w.ProcessBatch(records[:cut]); err != nil {
				t.Fatal(err)
			}

			var doc bytes.Buffer
			pos, err := w.WriteCheckpoint(&doc, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if pos != uint64(cut) {
				t.Fatalf("checkpoint position = %d, want %d", pos, cut)
			}

			// Byte idempotence: restore → re-checkpoint reproduces the document.
			restored, weightName, err := ReadWindowedCheckpoint(bytes.NewReader(doc.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if weightName != tc.name {
				t.Fatalf("restored weight %q, want %q", weightName, tc.name)
			}
			var again bytes.Buffer
			if _, err := restored.WriteCheckpoint(&again, tc.name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(doc.Bytes(), again.Bytes()) {
				t.Fatalf("window checkpoint not byte-idempotent: %d vs %d bytes", doc.Len(), again.Len())
			}
			if restored.Processed() != uint64(cut) || restored.Panes() != w.Panes() || restored.Horizon() != w.Horizon() {
				t.Fatalf("restored geometry (pos=%d panes=%d horizon=%d) != original (%d, %d, %d)",
					restored.Processed(), restored.Panes(), restored.Horizon(), w.Processed(), w.Panes(), w.Horizon())
			}

			// Both chains consume the identical suffix and must stay
			// bit-identical: same query answers, same deletion counters, same
			// re-checkpoint bytes.
			for _, chain := range []*Parallel{w, restored} {
				if err := chain.ProcessBatch(records[cut:]); err != nil {
					t.Fatal(err)
				}
			}
			defer w.Close()
			defer restored.Close()
			for _, win := range []uint64{0, cfg.Window / 2} {
				a, err := w.Estimate(win)
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Estimate(win)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("window %d: queries diverged after restore:\n%+v\n%+v", win, a, b)
				}
			}
			aA, aU := w.Deletions()
			bA, bU := restored.Deletions()
			if aA != bA || aU != bU {
				t.Fatalf("deletion counters diverged: %d/%d vs %d/%d", aA, aU, bA, bU)
			}
			var fin1, fin2 bytes.Buffer
			if _, err := w.WriteCheckpoint(&fin1, tc.name); err != nil {
				t.Fatal(err)
			}
			if _, err := restored.WriteCheckpoint(&fin2, tc.name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fin1.Bytes(), fin2.Bytes()) {
				t.Fatal("final checkpoints differ: restored chain did not evolve bit-identically")
			}
		})
	}
}

// TestWindowedCheckpointRejectsCorruption: the window container decoder
// must reject structural lies without panicking — truncation, flipped
// bytes, pane indices out of order, and geometry disagreements.
func TestWindowedCheckpointRejectsCorruption(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(150, 4, 0.4, 0x0BAD))
	records, _ := turnstileWindowStream(base, 30)
	span := uint64(len(base))
	w, err := NewWindowed(WindowConfig{Capacity: 60, Seed: 3, Shards: 2, PaneWidth: span / 6, Window: span / 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ProcessBatch(records); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteCheckpoint(&buf, "uniform"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	doc := buf.Bytes()

	if _, _, err := ReadWindowedCheckpoint(bytes.NewReader(doc), nil); err != nil {
		t.Fatalf("pristine document rejected: %v", err)
	}
	for _, cut := range []int{1, 8, len(doc) / 2, len(doc) - 1} {
		if _, _, err := ReadWindowedCheckpoint(bytes.NewReader(doc[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, flip := range []int{5, 9, len(doc) / 3, len(doc) - 2} {
		bad := append([]byte(nil), doc...)
		bad[flip] ^= 0x40
		if wr, _, err := ReadWindowedCheckpoint(bytes.NewReader(bad), nil); err == nil {
			// A flip inside an embedded document's padding may be caught by
			// that document's own checksum only; acceptance is a failure.
			wr.Close()
			t.Fatalf("byte flip at %d accepted", flip)
		}
	}
}

// TestWindowedValidation: config and query validation errors.
func TestWindowedValidation(t *testing.T) {
	bad := []WindowConfig{
		{Capacity: 0, PaneWidth: 10, Window: 100},
		{Capacity: 10, PaneWidth: 0, Window: 100},
		{Capacity: 10, PaneWidth: 10, Window: 0},
		{Capacity: 10, PaneWidth: 100, Window: 50}, // window below one pane
	}
	for i, cfg := range bad {
		if _, err := NewWindowed(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	w, err := NewWindowed(WindowConfig{Capacity: 10, Seed: 1, Shards: 1, PaneWidth: 10, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Estimate(101); err == nil {
		t.Fatal("query beyond the configured window accepted")
	}
	w.Close()
	w.Close() // idempotent
	if err := w.ProcessBatch([]graph.Edge{graph.NewEdge(1, 2)}); err == nil {
		t.Fatal("ProcessBatch accepted on closed Windowed")
	}
	if _, err := w.Estimate(0); err == nil {
		t.Fatal("Query accepted on closed Windowed")
	}
	if _, err := w.WriteCheckpoint(&bytes.Buffer{}, "uniform"); err == nil {
		t.Fatal("WriteCheckpoint accepted on closed Windowed")
	}
}

// windowedBound is one committed NRMSE tolerance for the windowed
// estimators at a given sample size.
type windowedBound struct {
	m                 int
	tri, wedge, edges float64
}

// TestWindowedEstimatorAccuracyNRMSE pins the sliding-window estimators
// against exact windowed ground truth on a clustered turnstile stream
// (timestamps = positions, ~1/8 of inserts later deleted): NRMSE of the
// per-trial estimate/exact ratios across permutations must stay under
// bounds committed at roughly 2x the observed error.
func TestWindowedEstimatorAccuracyNRMSE(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(2000, 8, 0.3, 0x217))
	span := uint64(len(base))
	window := span / 4
	const trials = 3

	bounds := []windowedBound{
		{m: 1_000, tri: 0.80, wedge: 0.30, edges: 0.10},
		{m: 4_000, tri: 0.30, wedge: 0.12, edges: 0.05},
	}
	for _, b := range bounds {
		ratios := map[string][]float64{}
		for trial := 0; trial < trials; trial++ {
			perm := append([]graph.Edge(nil), base...)
			randx.New(0x217A+uint64(trial)).Shuffle(len(perm), func(i, j int) {
				perm[i], perm[j] = perm[j], perm[i]
			})
			records, deleted := turnstileWindowStream(perm, 200)
			survivors := survivorsOf(perm, deleted)
			wantEdges, wantTri, wantWedge := exact.Windowed(survivors, window, span)
			if wantTri <= 0 || wantWedge <= 0 || wantEdges <= 0 {
				t.Fatalf("degenerate windowed ground truth (%d, %d, %d)", wantEdges, wantTri, wantWedge)
			}

			w, err := NewWindowed(WindowConfig{
				Capacity:  b.m,
				Weight:    core.TriangleWeight,
				Seed:      0x217B + uint64(trial),
				Shards:    2,
				PaneWidth: window / 4,
				Window:    window,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ProcessBatch(records); err != nil {
				t.Fatal(err)
			}
			est, err := w.Estimate(window)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			ratios["triangles"] = append(ratios["triangles"], est.Triangles/float64(wantTri))
			ratios["wedges"] = append(ratios["wedges"], est.Wedges/float64(wantWedge))
			ratios["edges"] = append(ratios["edges"], est.Edges/float64(wantEdges))
		}
		for motif, bound := range map[string]float64{"triangles": b.tri, "wedges": b.wedge, "edges": b.edges} {
			nrmse := stats.NRMSE(ratios[motif], 1)
			t.Logf("m=%d %s NRMSE %.4f (bound %.3f) ratios %v", b.m, motif, nrmse, bound, ratios[motif])
			if math.IsNaN(nrmse) || nrmse > bound {
				t.Errorf("m=%d %s NRMSE %.4f exceeds committed bound %.3f", b.m, motif, nrmse, bound)
			}
		}
	}
}

// legacyWindowStream regenerates the records behind testdata/window_v3.gpsc:
// an Erdős–Rényi stream timed TS = 10+i, in which every 9th record from the
// 60th on deletes the edge inserted 60 records earlier.
func legacyWindowStream() []graph.Edge {
	es := testStream(40, 700, 0xAB)
	for i := range es {
		es[i].TS = uint64(10 + i)
		if i%9 == 7 && i >= 60 {
			es[i] = es[i-60].At(es[i].TS).AsDeletion()
		}
	}
	return es
}

// TestWindowedLegacyCheckpointRestores: testdata/window_v3.gpsc is a
// Version3 window document of the earlier pane-of-engines layout, written by
// NewWindowed(WindowConfig{Capacity: 96, Weight: core.TriangleWeight, Seed:
// 31, Shards: 2, PaneWidth: 150, Window: 450}) after the first 600 records of
// legacyWindowStream: three rotated panes that took deletions, plus a live
// pane. testdata/window_v3.json holds that layout's Estimate(0) answer. The
// legacy reader splits each merged pane per shard without a random draw, so
// the restored engine must give the same answer; the live pane holds fewer
// than m edges, so the old layout's live-pane merge excluded nothing and the
// two query paths see the same candidates. Further ingest must then
// round-trip through the current format byte for byte.
func TestWindowedLegacyCheckpointRestores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "window_v3.gpsc"))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != checkpoint.Version3 || raw[5] != checkpoint.KindWindow {
		t.Fatalf("fixture header version %d kind %#x, want a Version3 window document", raw[4], raw[5])
	}
	answer, err := os.ReadFile(filepath.Join("testdata", "window_v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Triangles, Wedges, Edges   float64
		Window, Horizon, Processed uint64
	}
	if err := json.Unmarshal(answer, &want); err != nil {
		t.Fatal(err)
	}

	w, name, err := ReadWindowedCheckpoint(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if name != "triangle" || w.Processed() != want.Processed || w.Horizon() != want.Horizon {
		t.Fatalf("restored weight %q, position %d, horizon %d; want triangle, %d, %d",
			name, w.Processed(), w.Horizon(), want.Processed, want.Horizon)
	}
	est, err := w.Estimate(0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Window != want.Window {
		t.Fatalf("window %d, want %d", est.Window, want.Window)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"triangles", est.Triangles, want.Triangles}, {"wedges", est.Wedges, want.Wedges}, {"edges", est.Edges, want.Edges}} {
		if rel := math.Abs(c.got-c.want) / c.want; !(rel <= 1e-9) {
			t.Errorf("%s = %v, recorded %v (relative error %.3g)", c.name, c.got, c.want, rel)
		}
	}

	records := legacyWindowStream()
	if err := w.ProcessBatch(records[want.Processed:]); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if _, err := w.WriteCheckpoint(&doc, name); err != nil {
		t.Fatal(err)
	}
	if v := doc.Bytes()[4]; v != checkpoint.Version4 {
		t.Fatalf("re-checkpoint wrote version %d, want %d", v, checkpoint.Version4)
	}
	restored, _, err := ReadWindowedCheckpoint(bytes.NewReader(doc.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var again bytes.Buffer
	if _, err := restored.WriteCheckpoint(&again, name); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), again.Bytes()) {
		t.Fatal("checkpoint of a legacy-restored engine is not byte-idempotent")
	}
	a, err := w.Estimate(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Estimate(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || restored.Processed() != uint64(len(records)) {
		t.Fatalf("round trip diverged: %+v vs %+v, position %d", a, b, restored.Processed())
	}
}

// TestWindowedUnbiasedAndCalibrated is the windowed counterpart of core's
// TestConfidenceIntervalCoverage: over many seeds on one turnstile stream,
// at a capacity well below the in-window edge count, with P=2 shards,
// rotations and deletions that fan out to retired panes, the mean
// estimate/exact ratio of triangles, wedges and in-window edges must lie
// within 3 standard errors of 1, and the 95% intervals of triangles and
// wedges must cover the exact counts at least 85% of the time.
func TestWindowedUnbiasedAndCalibrated(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo test skipped in -short mode")
	}
	base := dedupeEdges(gen.HolmeKim(400, 6, 0.5, 0xCA1))
	randx.New(0xCA2).Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	records, deleted := turnstileWindowStream(base, 300)
	span := uint64(len(base))
	window := span / 2
	wantEdges, wantTri, wantWedge := exact.Windowed(survivorsOf(base, deleted), window, span)
	const m, trials = 250, 400
	if wantEdges < 3*m || wantTri <= 0 {
		t.Fatalf("stream does not exercise sub-saturated sampling: %d in-window edges, %d triangles", wantEdges, wantTri)
	}

	var tri, wedge, edges stats.Welford
	hitTri, hitWedge := 0, 0
	for trial := 0; trial < trials; trial++ {
		w, err := NewWindowed(WindowConfig{Capacity: m, Weight: core.TriangleWeight, Seed: 0xCA3 + uint64(trial),
			Shards: 2, PaneWidth: window / 3, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessBatch(records); err != nil {
			t.Fatal(err)
		}
		est, err := w.Estimate(0)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		tri.Add(est.Triangles / float64(wantTri))
		wedge.Add(est.Wedges / float64(wantWedge))
		edges.Add(est.Edges / float64(wantEdges))
		if est.TriangleInterval().Contains(float64(wantTri)) {
			hitTri++
		}
		if est.WedgeInterval().Contains(float64(wantWedge)) {
			hitWedge++
		}
	}
	for _, c := range []struct {
		name string
		w    *stats.Welford
	}{{"triangles", &tri}, {"wedges", &wedge}, {"edges", &edges}} {
		t.Logf("%s: mean ratio %.4f, SE %.4f", c.name, c.w.Mean(), c.w.StdErr())
		if math.Abs(c.w.Mean()-1) > 3*c.w.StdErr() {
			t.Errorf("%s: mean estimate/exact ratio %.4f is more than 3 SE (%.4f) from 1", c.name, c.w.Mean(), c.w.StdErr())
		}
	}
	for _, c := range []struct {
		name string
		hits int
	}{{"triangle", hitTri}, {"wedge", hitWedge}} {
		rate := float64(c.hits) / trials
		t.Logf("%s CI coverage %.3f", c.name, rate)
		if rate < 0.85 {
			t.Errorf("%s CI coverage %.3f < 0.85", c.name, rate)
		}
	}
}

// TestWindowedInterleavingInvariant: barriers, checkpoints (which clone the
// shard chains) and window queries running concurrently with ingest must
// not change what the engine computes. A windowed engine queried and
// checkpointed while a producer feeds it ends in the same state, byte for
// byte, as a twin fed the same records with no reader in between.
func TestWindowedInterleavingInvariant(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(400, 5, 0.4, 0x1A7))
	records, _ := turnstileWindowStream(base, 80)
	span := uint64(len(base))
	cfg := WindowConfig{Capacity: 150, Weight: core.TriangleWeight, Seed: 61, Shards: 3,
		PaneWidth: span / 12, Window: span / 3}
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

	done := make(chan error, 1)
	go func() {
		for i := 0; i < len(records); i += 29 {
			if err := w.ProcessBatch(records[i:min(i+29, len(records))]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for fed := false; !fed; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			fed = true
		default:
		}
		if _, err := w.WriteCheckpoint(io.Discard, "triangle"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Estimate(cfg.Window / 2); err != nil {
			t.Fatal(err)
		}
		w.Panes()
		w.Deletions()
	}
	if err := twin.ProcessBatch(records); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if _, err := w.WriteCheckpoint(&got, "triangle"); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.WriteCheckpoint(&want, "triangle"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("readers interleaved with ingest changed the windowed state")
	}
}

package main

import (
	"bytes"
	"slices"

	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/randx"
	"gps/internal/stream"
)

// Input shapes. Every stream is built from node-disjoint relabelled copies
// of one Holme-Kim graph drawn from the workload seed: copy c maps node v to
// v + c·baseNodes, so the exact triangle and wedge counts of K whole copies
// are K times those of the base graph.
const (
	baseNodes = 20000
	baseK     = 5
	baseP     = 0.5
	batchSize = 8192 // edges (or records) per ingest request
)

// base is the Holme-Kim graph every stream copies, with its exact counts.
type base struct {
	edges     []graph.Edge
	triangles int64
	wedges    int64
}

func newBase(seed uint64) *base {
	edges := gen.HolmeKim(baseNodes, baseK, baseP, seed)
	c := exact.Count(graph.BuildStatic(edges))
	return &base{edges: edges, triangles: c.Triangles, wedges: c.Wedges}
}

// edge returns global edge g of the copies stream.
func (b *base) edge(g int) graph.Edge {
	e := b.edges[g%len(b.edges)]
	off := graph.NodeID(g / len(b.edges) * baseNodes)
	return graph.Edge{U: e.U + off, V: e.V + off}
}

// appendCopies appends global edges [lo, hi) of the copies stream to dst.
func (b *base) appendCopies(dst []graph.Edge, lo, hi int) []graph.Edge {
	for g := lo; g < hi; g++ {
		dst = append(dst, b.edge(g))
	}
	return dst
}

// encode writes edges as one GPSB request body into buf (reset first): v1
// for untimed insert-only batches, v3 with timestamps for turnstile ones.
func encode(buf *bytes.Buffer, edges []graph.Edge, turnstile bool) error {
	buf.Reset()
	var w *stream.BinaryWriter
	if turnstile {
		w = stream.NewBinaryWriterTurnstile(buf, true)
	} else {
		w = stream.NewBinaryWriter(buf)
	}
	for _, e := range edges {
		if err := w.WriteEdge(e); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Turnstile stream geometry of the window workload, in event-time units.
// Event time advances by one per insert, so the window holds the last
// windowWidth inserts (minus the deletions among them).
const (
	windowWidth   = 1 << 17
	windowPanes   = 8
	windowCap     = 1 << 13 // reservoir capacity m of every pane
	deleteShare   = 0.11    // share of inserts later deleted (~10% of records)
	deletionBlock = 1024    // deletions fire at the start of a block of inserts
)

// turnstile generates the window workload's record stream lazily and
// deterministically from the seed: inserts walk the copies stream with
// event time g+1 for insert g, and a seeded ~11% of inserts are deleted
// later — after a lag drawn uniformly from [1, 2·windowWidth) inserts, so
// about half of the deletions hit edges still in the window and half hit
// edges already evicted from it. A deletion carries the event time of the
// insert it follows, keeping timestamps non-decreasing.
type turnstile struct {
	b       *base
	seed    uint64
	inserts int            // inserts emitted so far (= current event time)
	deletes int            // deletion records emitted so far
	fired   int            // blocks whose deletions have moved to due
	due     []graph.Edge   // deletions to emit before the next insert
	pending [][]graph.Edge // scheduled deletions by firing block, ring-indexed
}

func newTurnstile(b *base, seed uint64) *turnstile {
	return &turnstile{b: b, seed: seed, pending: make([][]graph.Edge, 2*windowWidth/deletionBlock+2)}
}

// next appends n records to dst.
func (t *turnstile) next(dst []graph.Edge, n int) []graph.Edge {
	for n > 0 {
		if len(t.due) > 0 {
			dst = append(dst, t.due[0].At(uint64(t.inserts)).AsDeletion())
			t.due = t.due[1:]
			t.deletes++
			n--
			continue
		}
		g := t.inserts
		if block := g / deletionBlock; block == t.fired {
			slot := block % len(t.pending)
			t.due, t.pending[slot] = t.pending[slot], nil
			t.fired++
			continue
		}
		e := t.b.edge(g).At(uint64(g + 1))
		dst = append(dst, e)
		t.inserts++
		n--
		h := randx.Mix64(t.seed ^ randx.Mix64(uint64(g)+0x5EED))
		if float64(h>>11)/(1<<53) < deleteShare {
			lag := 1 + int((h&0xFFFFFFFF)%uint64(2*windowWidth-1))
			// A deletion due inside the current block fires with the next.
			block := max((g+lag)/deletionBlock, g/deletionBlock+1)
			slot := block % len(t.pending)
			t.pending[slot] = append(t.pending[slot], e)
		}
	}
	return dst
}

// clone returns an independent copy of the generator: it emits the same
// records from here on.
func (t *turnstile) clone() *turnstile {
	c := *t
	c.due = slices.Clone(t.due)
	c.pending = make([][]graph.Edge, len(t.pending))
	for i, p := range t.pending {
		c.pending[i] = slices.Clone(p)
	}
	return &c
}

// windowTruth runs t (which it consumes) for records more records and
// returns the exact triangle and wedge counts of the edges alive at the end
// with event times in (horizon-windowWidth, horizon]. Inserts emitted before
// t's position must lie outside that window: their deletions then delete
// nothing.
func windowTruth(t *turnstile, records int) (horizon uint64, edges int, triangles, wedges int64) {
	buf := make([]graph.Edge, 0, batchSize)
	alive := make(map[uint64]int)
	for done := 0; done < records; {
		n := min(batchSize, records-done)
		buf = t.next(buf[:0], n)
		for _, e := range buf {
			if e.Del {
				delete(alive, e.Key())
			} else {
				alive[e.Key()] = int(e.TS)
			}
		}
		done += n
		// Only the last windowWidth event-time units can matter; prune
		// periodically to keep the map small.
		if len(alive) > 4*windowWidth {
			cut := t.inserts - windowWidth
			for k, ts := range alive {
				if ts <= cut {
					delete(alive, k)
				}
			}
		}
	}
	horizon = uint64(t.inserts)
	var recent []graph.Edge
	for k, ts := range alive {
		if uint64(ts)+windowWidth > horizon {
			recent = append(recent, graph.EdgeFromKey(k).At(uint64(ts)))
		}
	}
	n, tri, wed := exact.Windowed(recent, windowWidth, horizon)
	return horizon, n, tri, wed
}

// probe is the input ingested and checked before the first load phase:
// its batches, encoded, and the exact counts they must give. On ingest it
// is the first probeCopies copies (counts: copies × base counts); on window
// the first probeRecords turnstile records (counts: exact.Windowed over the
// edges alive in the window they end), and turn is their generator, which
// the load phases continue.
type probe struct {
	bodies    [][]byte
	records   int
	triangles int64
	wedges    int64
	turn      *turnstile
}

func newProbe(b *base, window bool, seed uint64) (*probe, error) {
	p := &probe{}
	n := probeCopies * len(b.edges)
	if window {
		p.turn, n = newTurnstile(b, seed), probeRecords
	}
	batch := make([]graph.Edge, 0, batchSize)
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		if window {
			batch = p.turn.next(batch[:0], hi-lo)
		} else {
			batch = b.appendCopies(batch[:0], lo, hi)
		}
		var buf bytes.Buffer
		if err := encode(&buf, batch, window); err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, buf.Bytes())
	}
	p.records = n
	if window {
		_, _, p.triangles, p.wedges = windowTruth(newTurnstile(b, seed), n)
	} else {
		p.triangles, p.wedges = probeCopies*b.triangles, probeCopies*b.wedges
	}
	return p, nil
}

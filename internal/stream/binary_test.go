package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"gps/internal/graph"
	"gps/internal/randx"
)

func sampleEdges() []graph.Edge {
	return []graph.Edge{
		graph.NewEdge(0, 1),
		graph.NewEdge(1, 2),
		graph.NewEdge(7, 3),
		graph.NewEdge(1<<20, 5),
		graph.NewEdge(0xfffffffe, 0xffffffff),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	edges := sampleEdges()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("round trip changed edge count: %d -> %d", len(edges), len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: %v -> %v", i, edges[i], got[i])
		}
	}
	// The format should beat text for ordinary id ranges.
	var text bytes.Buffer
	if err := WriteEdgeList(&text, edges); err != nil {
		t.Fatal(err)
	}
	t.Logf("binary %dB vs text %dB for %d edges", buf.Len(), text.Len(), len(edges))
}

func TestBinaryDecoderIncremental(t *testing.T) {
	edges := sampleEdges()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range edges {
		if err := bw.WriteEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if bw.Count() != len(edges) {
		t.Fatalf("writer count = %d, want %d", bw.Count(), len(edges))
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Feed the decoder through a one-byte-at-a-time reader: records must
	// decode incrementally regardless of read chunking.
	d := NewBinaryDecoder(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	for i := 0; ; i++ {
		e, err := d.Next()
		if err == io.EOF {
			if i != len(edges) {
				t.Fatalf("EOF after %d edges, want %d", i, len(edges))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e != edges[i] {
			t.Fatalf("edge %d: %v, want %v", i, e, edges[i])
		}
	}
	if d.Count() != len(edges) {
		t.Fatalf("decoder count = %d, want %d", d.Count(), len(edges))
	}
}

func TestBinaryDecoderErrors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, sampleEdges()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name  string
		input []byte
	}{
		{"empty", nil},
		{"short header", []byte("GPS")},
		{"bad magic", []byte("NOPE\x01\x00\x01")},
		{"future version", []byte("GPSB\x04\x00\x01")},
		{"v3 without deletion flag", []byte("GPSB\x03\x00\x00\x01\x03")},
		{"v3 unknown flags", []byte("GPSB\x03\xfe\x00\x01\x03")},
		{"v3 unknown op byte", []byte("GPSB\x03\x02\x07\x01\x03")},
		{"v3 truncated after op byte", []byte("GPSB\x03\x02\x01")},
		{"v2 unknown flags", []byte("GPSB\x02\xfe\x00\x01")},
		{"v2 header truncated before flags", []byte("GPSB\x02")},
		{"v2 record truncated before ts delta", append(append([]byte{}, []byte(binaryMagicV2)...),
			binaryFlagTimestamps, 0x00, 0x01)},
		{"truncated mid record", valid[:len(valid)-1]},
		{"truncated after first id", append(append([]byte{}, []byte(binaryMagic)...), 0x05)},
		{"id overflows uint32", append(append([]byte{}, []byte(binaryMagic)...),
			0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00)},
		{"varint overflows uint64", append(append([]byte{}, []byte(binaryMagic)...),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(bytes.NewReader(tc.input)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// A clean header with zero records is a valid empty stream.
	edges, err := ReadBinary(strings.NewReader(binaryMagic))
	if err != nil || len(edges) != 0 {
		t.Errorf("empty stream: edges=%v err=%v", edges, err)
	}
}

func TestBinaryDecoderCanonicalizes(t *testing.T) {
	// Hand-build a record with the endpoints in descending order.
	raw := []byte(binaryMagic)
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], 9)
	raw = append(raw, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], 2)
	raw = append(raw, tmp[:n]...)
	edges, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 || edges[0] != graph.NewEdge(2, 9) {
		t.Fatalf("got %v, want [2-9]", edges)
	}
}

// turnstileEdges is a mixed insert/delete stream exercising the v3 framing.
func turnstileEdges(timed bool) []graph.Edge {
	ts := func(i int) uint64 {
		if !timed {
			return 0
		}
		return uint64(10 + i*3)
	}
	return []graph.Edge{
		graph.NewEdgeAt(0, 1, ts(0)),
		graph.NewEdgeAt(1, 2, ts(1)),
		graph.NewEdgeAt(0, 1, ts(2)).AsDeletion(),
		graph.NewEdgeAt(7, 3, ts(3)),
		graph.NewEdgeAt(1<<20, 5, ts(4)).AsDeletion(),
		graph.NewEdgeAt(0xfffffffe, 0xffffffff, ts(5)),
	}
}

// TestBinaryV3RoundTrip: turnstile streams survive the write/read cycle
// with the Del marker and timestamps intact, in both timed and untimed
// form, and WriteBinary picks v3 exactly when a deletion is present.
func TestBinaryV3RoundTrip(t *testing.T) {
	for _, timed := range []bool{false, true} {
		name := "untimed"
		if timed {
			name = "timed"
		}
		t.Run(name, func(t *testing.T) {
			edges := turnstileEdges(timed)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, edges); err != nil {
				t.Fatal(err)
			}
			if got := buf.Bytes()[4]; got != binaryMagicV3[4] {
				t.Fatalf("WriteBinary chose version %d for a deletion-carrying stream, want 3", got)
			}
			wantFlags := byte(binaryFlagDeletions)
			if timed {
				wantFlags |= binaryFlagTimestamps
			}
			if got := buf.Bytes()[5]; got != wantFlags {
				t.Fatalf("v3 flags = %#02x, want %#02x", got, wantFlags)
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(edges) {
				t.Fatalf("round trip changed edge count: %d -> %d", len(edges), len(got))
			}
			for i := range edges {
				if got[i] != edges[i] {
					t.Fatalf("edge %d: %v -> %v", i, edges[i], got[i])
				}
			}
		})
	}
}

// TestBinaryV2RejectsDeletions: the pre-turnstile framings cannot carry a
// deletion — the writer refuses the record, and a v2 header claiming the
// deletion flag is the typed ErrDeletionsNeedV3 (decoding it as v2 would
// silently turn deletions into inserts).
func TestBinaryV2RejectsDeletions(t *testing.T) {
	del := graph.NewEdge(1, 2).AsDeletion()
	var buf bytes.Buffer
	if err := NewBinaryWriter(&buf).WriteEdge(del); err == nil {
		t.Fatal("v1 writer accepted a deletion record")
	}
	buf.Reset()
	if err := NewBinaryWriterTimed(&buf).WriteEdge(del); err == nil {
		t.Fatal("v2 writer accepted a deletion record")
	}

	hdr := append([]byte(binaryMagicV2), binaryFlagDeletions)
	_, err := ReadBinary(bytes.NewReader(append(hdr, 0x01, 0x03)))
	if !errors.Is(err, ErrDeletionsNeedV3) {
		t.Fatalf("v2 header with deletion flag: err = %v, want ErrDeletionsNeedV3", err)
	}
	// Both flag bits set still names the real problem: the deletion flag.
	hdr = append([]byte(binaryMagicV2), binaryFlagDeletions|binaryFlagTimestamps)
	if _, err := ReadBinary(bytes.NewReader(append(hdr, 0x01, 0x03))); !errors.Is(err, ErrDeletionsNeedV3) {
		t.Fatalf("v2 header with deletion+ts flags: err = %v, want ErrDeletionsNeedV3", err)
	}
}

// TestBinaryDecoderResetStats: a decoder reused across documents must zero
// its per-document statistics — Count and SelfLoops are stream positions
// the checkpoint stream binding depends on, so bleeding one body's counts
// into the next desynchronizes resumes (the bug Reset's doc pins).
func TestBinaryDecoderResetStats(t *testing.T) {
	doc := func(edges []graph.Edge) []byte {
		var buf bytes.Buffer
		bw := NewBinaryWriterTurnstile(&buf, false)
		for _, e := range edges {
			if err := bw.WriteEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// First document: two edges and two self loops (written by hand — the
	// writer API cannot produce them, the wire can).
	first := doc([]graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2)})
	first = append(first, opInsert, 0x05, 0x05, opInsert, 0x09, 0x09)
	second := doc([]graph.Edge{graph.NewEdge(3, 4)})

	d := NewBinaryDecoder(bytes.NewReader(first))
	for {
		if _, err := d.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if d.Count() != 2 || d.SelfLoops() != 2 {
		t.Fatalf("first doc: count=%d selfLoops=%d, want 2/2", d.Count(), d.SelfLoops())
	}

	d.Reset(bytes.NewReader(second))
	if d.Count() != 0 || d.SelfLoops() != 0 {
		t.Fatalf("after Reset: count=%d selfLoops=%d, want 0/0", d.Count(), d.SelfLoops())
	}
	e, err := d.Next()
	if err != nil || e != graph.NewEdge(3, 4) {
		t.Fatalf("after Reset: edge=%v err=%v", e, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after Reset: want clean EOF, got %v", err)
	}
	if d.Count() != 1 || d.SelfLoops() != 0 {
		t.Fatalf("second doc: count=%d selfLoops=%d, want 1/0 (stats bled across Reset)", d.Count(), d.SelfLoops())
	}

	// Reset also clears the error latch and the timestamp-delta base.
	d.Reset(bytes.NewReader([]byte("NOPE")))
	if _, err := d.Next(); err == nil {
		t.Fatal("bad magic accepted after Reset")
	}
	timed := func(edges []graph.Edge) []byte {
		var buf bytes.Buffer
		bw := NewBinaryWriterTimed(&buf)
		for _, e := range edges {
			if err := bw.WriteEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	d.Reset(bytes.NewReader(timed([]graph.Edge{graph.NewEdgeAt(1, 2, 100)})))
	if e, err := d.Next(); err != nil || e.TS != 100 {
		t.Fatalf("timed doc after error Reset: edge=%v err=%v", e, err)
	}
	// A second timed document must re-base deltas at 0, not at 100.
	d.Reset(bytes.NewReader(timed([]graph.Edge{graph.NewEdgeAt(5, 6, 7)})))
	if e, err := d.Next(); err != nil || e.TS != 7 {
		t.Fatalf("delta base bled across Reset: edge=%v err=%v", e, err)
	}
}

// TestSimplifierTurnstile: deletion records pass through the deduplicating
// simplifier untouched and clear the seen set, so a re-insert after a
// delete is a fresh arrival, not a suppressed duplicate.
func TestSimplifierTurnstile(t *testing.T) {
	in := []graph.Edge{
		graph.NewEdge(0, 1),
		graph.NewEdge(0, 1),              // duplicate: dropped
		graph.NewEdge(0, 1).AsDeletion(), // passes through, clears seen
		graph.NewEdge(0, 1),              // re-insert after delete: kept
		graph.NewEdge(2, 3).AsDeletion(), // deletion of a never-seen edge still passes
	}
	got := Collect(Simplify(FromEdges(in)))
	want := []graph.Edge{in[0], in[2], in[3], in[4]}
	if len(got) != len(want) {
		t.Fatalf("simplified stream has %d records, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEdgeListTurnstile: the text format round-trips deletions via the
// leading "del" marker, and accepts the "-" alias.
func TestEdgeListTurnstile(t *testing.T) {
	in := []graph.Edge{
		graph.NewEdgeAt(0, 1, 5),
		graph.NewEdgeAt(0, 1, 6).AsDeletion(),
		graph.NewEdgeAt(2, 3, 7).AsDeletion(),
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("round trip changed record count: %d -> %d", len(in), len(got))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d: %v -> %v", i, in[i], got[i])
		}
	}
	alias, err := ReadEdgeList(strings.NewReader("- 5 6\ndel 7 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(alias) != 2 || !alias[0].Del || !alias[1].Del {
		t.Fatalf("deletion markers not decoded: %v", alias)
	}
}

func TestReadEdgesSniffsFormat(t *testing.T) {
	edges := sampleEdges()
	var bin, text bytes.Buffer
	if err := WriteBinary(&bin, edges); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&text, edges); err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"binary": bin.Bytes(), "text": text.Bytes()} {
		got, err := ReadEdges(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(edges) {
			t.Fatalf("%s: %d edges, want %d", name, len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("%s: edge %d: %v, want %v", name, i, got[i], edges[i])
			}
		}
	}
}

// TestBinaryDecoderReuseAllocs pins the server's ingest decode: an
// 8192-edge body decoded into a reused buffer through a reset decoder
// allocates nothing — no window, no per-record error or edge storage.
func TestBinaryDecoderReuseAllocs(t *testing.T) {
	rng := randx.New(11)
	edges := make([]graph.Edge, 0, 8192)
	for len(edges) < cap(edges) {
		u, v := graph.NodeID(rng.Uint64n(1<<20)), graph.NodeID(rng.Uint64n(1<<20))
		if u != v {
			edges = append(edges, graph.NewEdge(u, v))
		}
	}
	var body bytes.Buffer
	if err := WriteBinary(&body, edges); err != nil {
		t.Fatal(err)
	}
	d := NewBinaryDecoder(nil)
	r := bytes.NewReader(nil)
	buf := make([]graph.Edge, 0, len(edges))
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body.Bytes())
		d.Reset(r)
		var err error
		if buf, err = d.AppendEdges(buf[:0]); err != nil || len(buf) != len(edges) {
			t.Fatalf("decoded %d edges, err %v; want %d", len(buf), err, len(edges))
		}
	})
	if allocs != 0 {
		t.Fatalf("reused decode allocates %.1f times per body, want 0", allocs)
	}
	if !slices.Equal(buf, edges) {
		t.Fatal("reused decode changed the edges")
	}
}

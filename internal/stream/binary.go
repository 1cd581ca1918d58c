package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gps/internal/fault"
	"gps/internal/graph"
)

// Binary edge framing: the compact on-disk and on-wire format for edge
// streams. A stream is the 4-byte magic "GPSB" plus a version byte, followed
// by one record per edge. Two versions are in use:
//
//	v1  "GPSB\x01"            record = uvarint u, uvarint v
//	v2  "GPSB\x02" + flags    record = uvarint u, uvarint v
//	                          [, uvarint ts-delta when flag 0x01 is set]
//	v3  "GPSB\x03" + flags    record = op byte, uvarint u, uvarint v
//	                          [, uvarint ts-delta when flag 0x01 is set]
//
// The flags byte describes the whole stream. Bit 0 (records carry
// timestamps) is defined for v2 and v3; bit 1 (turnstile deletions) is what
// v3 exists for — each record then leads with an op byte, opInsert (0x00) or
// opDelete (0x01), and a decoded deletion carries graph.Edge.Del. Version 3
// without the deletion flag is rejected (it would encode nothing v2 cannot),
// and the deletion flag on a v2 header is the typed ErrDeletionsNeedV3 —
// a turnstile stream fed to a pre-turnstile consumer must fail loudly, not
// decode deletions as inserts. Unknown bits are rejected. Timestamps are
// delta-encoded against the previous record's timestamp (starting from 0),
// so a non-decreasing event-time stream — the normal shape of an activity
// log — costs one extra byte per edge for small inter-arrival gaps; the
// encoder rejects timestamp regressions, which the unsigned delta could not
// represent. Typical edge lists cost 2-6 bytes per edge versus ~12 for the
// text format, and the format needs no length prefix: records are
// self-delimiting, so it can be produced and consumed incrementally (an
// HTTP ingest body, a pipe, a partially written file all decode up to the
// last complete record).
//
// The decoder is strict: a wrong magic, an unknown version or flag, a varint
// that does not fit a uint32, a record truncated mid-edge, or a timestamp
// that overflows uint64 all return errors (never panic), and nothing is
// allocated based on untrusted lengths — memory grows only as records
// actually parse. Self loops are not errors: both this decoder and the text
// reader skip and count them under the shared policy (see ReadStats), so a
// logical stream decodes to the same edge sequence in every format.

// binaryMagic starts every v1 binary edge stream: format tag + version byte.
const binaryMagic = "GPSB\x01"

// binaryMagicV2 starts every v2 (flagged, optionally timestamped) stream.
const binaryMagicV2 = "GPSB\x02"

// binaryMagicV3 starts every v3 (turnstile, per-record op byte) stream.
const binaryMagicV3 = "GPSB\x03"

// binaryFlagTimestamps marks a v2/v3 stream whose records carry a trailing
// uvarint timestamp delta.
const binaryFlagTimestamps = 0x01

// binaryFlagDeletions marks a v3 stream whose records lead with an op byte;
// it is mandatory in v3 (the whole point of the version) and the typed
// rejection ErrDeletionsNeedV3 on a v2 header.
const binaryFlagDeletions = 0x02

// Per-record op bytes of the v3 framing.
const (
	opInsert = 0x00
	opDelete = 0x01
)

// ErrDeletionsNeedV3 is returned (wrapped; test with errors.Is) when a v2
// header carries the deletion flag: only the v3 framing defines the
// per-record op byte, so decoding such a stream as v2 would silently turn
// every deletion into an insert.
var ErrDeletionsNeedV3 = errors.New("stream: deletion flag requires the v3 binary framing")

// BinaryContentType is the MIME type the service uses for binary edge
// frames in HTTP requests.
const BinaryContentType = "application/x-gps-edges"

// maxVarint32Len caps the encoded size of a uint32 varint.
const maxVarint32Len = 5

// ReadStats reports what a reader skipped while decoding a stream.
//
// Self-loop policy: the graph model is simplified (§3.1), so self loops can
// never reach a sampler. Every reader — text and binary alike — applies one
// policy: skip the record, count it, keep going. Skipping (rather than
// erroring) matters because both formats must accept the same logical
// streams, and counting matters because skipped records shift stream
// positions that checkpoint stream bindings rely on: two encodings of one
// stream yield identical edge sequences and identical skip counts.
type ReadStats struct {
	// SelfLoops is the number of self-loop records skipped.
	SelfLoops int
	// TimestampsDropped reports that a text edge list carried a numeric
	// third column that was not non-decreasing — a weight/count column,
	// not event time — so the stream was loaded untimed (see ReadEdgeList).
	TimestampsDropped bool
}

// BinaryWriter encodes edges into the binary framing. Output is buffered;
// call Flush when done. Construct with NewBinaryWriter (v1) or
// NewBinaryWriterTimed (v2 with timestamps).
type BinaryWriter struct {
	bw     *bufio.Writer
	count  int
	timed  bool
	dels   bool
	prevTS uint64
}

// NewBinaryWriter returns a v1 writer that emits the stream header followed
// by one record per WriteEdge call. Errors are reported by WriteEdge/Flush.
// Edges carrying timestamps are rejected — the v1 framing cannot represent
// them; use NewBinaryWriterTimed (or WriteBinary, which picks the version).
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	return &BinaryWriter{bw: bw}
}

// NewBinaryWriterTimed returns a v2 writer whose records carry delta-encoded
// timestamps. Edge timestamps must be non-decreasing in write order.
func NewBinaryWriterTimed(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagicV2)
	bw.WriteByte(binaryFlagTimestamps)
	return &BinaryWriter{bw: bw, timed: true}
}

// NewBinaryWriterTurnstile returns a v3 writer whose records lead with an
// insert/delete op byte (timed controls the timestamp column, as in v2).
func NewBinaryWriterTurnstile(w io.Writer, timed bool) *BinaryWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagicV3)
	flags := byte(binaryFlagDeletions)
	if timed {
		flags |= binaryFlagTimestamps
	}
	bw.WriteByte(flags)
	return &BinaryWriter{bw: bw, timed: timed, dels: true}
}

// WriteEdge appends one edge record.
func (w *BinaryWriter) WriteEdge(e graph.Edge) error {
	var buf [1 + 3*binary.MaxVarintLen64]byte
	n := 0
	if w.dels {
		buf[0] = opInsert
		if e.Del {
			buf[0] = opDelete
		}
		n = 1
	} else if e.Del {
		version := "v1"
		if w.timed {
			version = "v2"
		}
		return fmt.Errorf("stream: binary record %d: %s framing cannot carry a deletion (use NewBinaryWriterTurnstile)",
			w.count, version)
	}
	n += binary.PutUvarint(buf[n:], uint64(e.U))
	n += binary.PutUvarint(buf[n:], uint64(e.V))
	if w.timed {
		if e.TS < w.prevTS {
			return fmt.Errorf("stream: binary record %d: timestamp %d regresses below %d (v2 deltas are unsigned; sort the stream by time)",
				w.count, e.TS, w.prevTS)
		}
		n += binary.PutUvarint(buf[n:], e.TS-w.prevTS)
		w.prevTS = e.TS
	} else if e.TS != 0 {
		return fmt.Errorf("stream: binary record %d: v1 framing cannot carry timestamp %d (use NewBinaryWriterTimed)",
			w.count, e.TS)
	}
	if _, err := w.bw.Write(buf[:n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of edges written so far.
func (w *BinaryWriter) Count() int { return w.count }

// Flush writes any buffered data to the underlying writer.
func (w *BinaryWriter) Flush() error { return w.bw.Flush() }

// WriteBinary writes edges in the binary framing accepted by ReadBinary,
// choosing the version by content: a stream where no edge carries a
// timestamp is written as v1 (byte-identical to what earlier releases
// produced), anything timestamped as v2, anything carrying a deletion
// record as v3.
func WriteBinary(w io.Writer, edges []graph.Edge) error {
	timed, dels := false, false
	for _, e := range edges {
		timed = timed || e.TS != 0
		dels = dels || e.Del
	}
	var bw *BinaryWriter
	switch {
	case dels:
		bw = NewBinaryWriterTurnstile(w, timed)
	case timed:
		bw = NewBinaryWriterTimed(w)
	default:
		bw = NewBinaryWriter(w)
	}
	for _, e := range edges {
		if err := bw.WriteEdge(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryDecoder incrementally decodes a binary edge stream (any version).
// Construct with NewBinaryDecoder and call Next until it returns io.EOF, or
// call AppendEdges once to decode the whole stream into a slice.
//
// The decoder keeps its own byte window over the reader and decodes each
// record straight out of it with slice varint decoding, so a record costs
// no per-byte interface call. It reads more input only when the window
// holds an incomplete record: a pipe or an HTTP body yields every complete
// record without waiting for more bytes, and a reader that returns one
// byte per Read decodes to the same edges, counts and errors as one that
// returns everything at once.
type BinaryDecoder struct {
	r      io.Reader
	buf    []byte // window storage; buf[lo:hi] is read but not yet decoded
	lo, hi int
	rerr   error // sticky error of the last Read (io.EOF at end of input)

	started   bool
	timed     bool
	dels      bool
	err       error
	count     int
	selfLoops int
	prevTS    uint64
}

// binaryWindow is the decoder's window size: large enough that a
// request-sized body takes a few reads (and bufio-backed readers hand
// reads of this size straight to the socket), far above the 31-byte
// maximum record.
const binaryWindow = 32 << 10

// maxEmptyReads bounds consecutive (0, nil) reads before the decoder gives
// up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// NewBinaryDecoder returns a decoder over r. The header is checked on the
// first Next or AppendEdges call.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{r: r, buf: make([]byte, binaryWindow)}
}

// Reset rearms the decoder over a new document, reusing the window's
// storage. Every per-document field goes back to its zero state — header
// expectation, error latch, the timestamp-delta base, and the skip
// statistics (SelfLoops, Count). The statistics reset is load-bearing:
// skip counts are per-document stream positions (checkpoint stream bindings
// depend on them), so a decoder reused across documents must not bleed one
// body's self-loop count into the next.
func (d *BinaryDecoder) Reset(r io.Reader) {
	*d = BinaryDecoder{r: r, buf: d.buf}
}

// Next returns the next edge in canonical form. It returns io.EOF at a
// clean end of stream and a descriptive error for malformed input; after
// any error the decoder stays in the error state. Self-loop records are
// skipped and counted (SelfLoops), per the shared reader policy.
func (d *BinaryDecoder) Next() (graph.Edge, error) {
	var one [1]graph.Edge
	if got, err := d.decode(one[:0], 1); len(got) == 0 {
		return graph.Edge{}, err
	}
	return one[0], nil
}

// AppendEdges decodes every remaining record, appending the edges to dst,
// and returns the extended slice. A clean end of stream returns a nil
// error; otherwise the error is the one Next would have returned, and dst
// holds the edges decoded before it.
func (d *BinaryDecoder) AppendEdges(dst []graph.Edge) ([]graph.Edge, error) {
	dst, err := d.decode(dst, -1)
	if err == io.EOF {
		err = nil
	}
	return dst, err
}

// decode appends up to max edges (all of them when max < 0) to dst. It
// returns a nil error only after exactly max edges; otherwise io.EOF at a
// clean end of stream, or the latched decode error.
func (d *BinaryDecoder) decode(dst []graph.Edge, max int) ([]graph.Edge, error) {
	if d.err != nil {
		return dst, d.err
	}
	if !d.started {
		if err := d.readHeader(); err != nil {
			d.err = err
			return dst, err
		}
		d.started = true
	}
	for n := 0; n != max; {
		e, size, err := d.parseRecord(d.buf[d.lo:d.hi])
		if err != nil {
			d.err = err
			return dst, err
		}
		if size == 0 {
			// The window ends inside a record (or is empty): read more.
			if err := d.fill(); err != nil {
				if err == io.EOF && d.lo == d.hi {
					return dst, io.EOF // clean end between records
				}
				d.err = fmt.Errorf("stream: binary record %d: %w", d.record(), noEOF(err))
				return dst, d.err
			}
			continue
		}
		d.lo += size
		d.prevTS = e.TS
		if e.U == e.V {
			d.selfLoops++ // shared self-loop policy: skip and count
			continue
		}
		d.count++
		c := graph.NewEdgeAt(e.U, e.V, e.TS)
		if e.Del {
			c = c.AsDeletion()
		}
		dst = append(dst, c)
		n++
	}
	return dst, nil
}

// parseRecord decodes the record at the head of b, returning it raw (not
// canonicalized, TS absolute) with its size in bytes. Size 0 means b ends
// inside the record and more input is needed; a record that is malformed
// by the bytes already present is an error even if it is incomplete.
func (d *BinaryDecoder) parseRecord(b []byte) (e graph.Edge, size int, err error) {
	i := 0
	if d.dels {
		if len(b) == 0 {
			return e, 0, nil
		}
		switch b[0] {
		case opInsert:
		case opDelete:
			e.Del = true
		default:
			return e, 0, fmt.Errorf("stream: binary record %d: unknown op byte %#02x", d.record(), b[0])
		}
		i = 1
	}
	u, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return e, 0, d.varintErr(b[i:], n)
	}
	i += n
	if u > 0xffffffff {
		return e, 0, fmt.Errorf("stream: binary record %d: node id %d exceeds uint32", d.record(), u)
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return e, 0, d.varintErr(b[i:], n)
	}
	i += n
	if v > 0xffffffff {
		return e, 0, fmt.Errorf("stream: binary record %d: node id %d exceeds uint32", d.record(), v)
	}
	e.U, e.V, e.TS = graph.NodeID(u), graph.NodeID(v), d.prevTS
	if d.timed {
		delta, n := binary.Uvarint(b[i:])
		if n <= 0 {
			return e, 0, d.varintErr(b[i:], n)
		}
		i += n
		e.TS += delta
		if e.TS < d.prevTS {
			return e, 0, fmt.Errorf("stream: binary record %d: timestamp overflows uint64", d.record())
		}
	}
	return e, i, nil
}

// varintErr classifies a binary.Uvarint result n <= 0 at the head of b:
// nil when b merely ends inside the varint (more input is needed), an
// overflow error otherwise. Ten bytes that do not terminate overflow
// uint64 whether or not more follow, as in binary.ReadUvarint.
func (d *BinaryDecoder) varintErr(b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return nil
	}
	return fmt.Errorf("stream: binary record %d: binary: varint overflows a 64-bit integer", d.record())
}

// fill compacts the window and reads more input into it. It returns nil
// once at least one byte arrived, and otherwise the reader's error (sticky:
// a reader that has failed or ended is not read again).
func (d *BinaryDecoder) fill() error {
	if d.rerr != nil {
		return d.rerr
	}
	d.hi = copy(d.buf, d.buf[d.lo:d.hi])
	d.lo = 0
	for range maxEmptyReads {
		n, err := d.r.Read(d.buf[d.hi:])
		d.hi += n
		if err != nil {
			d.rerr = err
		}
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	d.rerr = io.ErrNoProgress
	return d.rerr
}

// need reads until the window holds at least k bytes.
func (d *BinaryDecoder) need(k int) error {
	for d.hi-d.lo < k {
		if err := d.fill(); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of edges decoded so far (self loops excluded).
func (d *BinaryDecoder) Count() int { return d.count }

// SelfLoops returns the number of self-loop records skipped so far.
func (d *BinaryDecoder) SelfLoops() int { return d.selfLoops }

// record returns the index of the record currently being decoded, for error
// messages: every consumed record, skipped self loops included.
func (d *BinaryDecoder) record() int { return d.count + d.selfLoops }

// readHeader checks the magic, version and flags. It is the head of the
// binary reader, so the stream.decode fault point fires here: once per
// document, before any byte is consumed.
func (d *BinaryDecoder) readHeader() error {
	if err := hitDecodeFault(); err != nil {
		return err
	}
	if err := d.need(len(binaryMagic)); err != nil {
		return fmt.Errorf("stream: binary header: %w", noEOF(err))
	}
	hdr := d.buf[d.lo : d.lo+len(binaryMagic)]
	if string(hdr[:4]) != binaryMagic[:4] {
		return errors.New("stream: not a binary edge stream (bad magic)")
	}
	version := hdr[4]
	d.lo += len(binaryMagic)
	switch version {
	case binaryMagic[4]: // v1: bare records follow
	case binaryMagicV2[4]: // v2: a flags byte precedes the records
		flags, err := d.readFlags()
		if err != nil {
			return err
		}
		if flags&binaryFlagDeletions != 0 {
			// Typed rejection: decoding a turnstile stream as v2 would turn
			// deletions into inserts, the worst possible failure mode.
			return fmt.Errorf("stream: v2 header flags %#02x: %w", flags, ErrDeletionsNeedV3)
		}
		if flags&^byte(binaryFlagTimestamps) != 0 {
			return fmt.Errorf("stream: unsupported binary stream flags %#02x", flags)
		}
		d.timed = flags&binaryFlagTimestamps != 0
	case binaryMagicV3[4]: // v3: flags byte, records lead with an op byte
		flags, err := d.readFlags()
		if err != nil {
			return err
		}
		if flags&^byte(binaryFlagTimestamps|binaryFlagDeletions) != 0 {
			return fmt.Errorf("stream: unsupported binary stream flags %#02x", flags)
		}
		if flags&binaryFlagDeletions == 0 {
			return fmt.Errorf("stream: v3 header flags %#02x: a v3 stream without the deletion flag would not need v3", flags)
		}
		d.timed = flags&binaryFlagTimestamps != 0
		d.dels = true
	default:
		return fmt.Errorf("stream: unsupported binary edge stream version %d", version)
	}
	return nil
}

// readFlags consumes the v2/v3 header's flags byte.
func (d *BinaryDecoder) readFlags() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, fmt.Errorf("stream: binary header: %w", noEOF(err))
	}
	d.lo++
	return d.buf[d.lo-1], nil
}

// hitDecodeFault is the stream.decode fault point, hit at the head of the
// text and the binary reader. Sniffing picks one of the two, so a document
// hits it exactly once whichever way it is read. An injected error maps to
// the same client-visible 4xx a malformed body produces.
func hitDecodeFault() error {
	if fault.Enabled() {
		return fault.Hit(fault.StreamDecode)
	}
	return nil
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF so truncation inside a
// header or record is never mistaken for a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadBinary decodes a complete binary edge stream.
func ReadBinary(r io.Reader) ([]graph.Edge, error) {
	edges, _, err := ReadBinaryStats(r)
	return edges, err
}

// ReadBinaryStats is ReadBinary also reporting what was skipped.
func ReadBinaryStats(r io.Reader) ([]graph.Edge, ReadStats, error) {
	d := NewBinaryDecoder(r)
	edges, err := d.AppendEdges(nil)
	if err != nil {
		return nil, ReadStats{SelfLoops: d.SelfLoops()}, err
	}
	return edges, ReadStats{SelfLoops: d.SelfLoops()}, nil
}

// SniffBinary reports whether the reader starts with the binary edge-stream
// magic, without consuming input. The returned reader must be used in place
// of r (it holds the peeked bytes).
func SniffBinary(r io.Reader) (io.Reader, bool) {
	br := bufio.NewReader(r)
	peek, _ := br.Peek(4)
	return br, string(peek) == binaryMagic[:4]
}

// ReadEdges reads a complete edge stream in either supported format,
// sniffing the binary magic and falling back to the plain-text edge list.
func ReadEdges(r io.Reader) ([]graph.Edge, error) {
	edges, _, err := ReadEdgesStats(r)
	return edges, err
}

// ReadEdgesStats is ReadEdges also reporting what was skipped.
func ReadEdgesStats(r io.Reader) ([]graph.Edge, ReadStats, error) {
	rr, isBinary := SniffBinary(r)
	if isBinary {
		return ReadBinaryStats(rr)
	}
	return ReadEdgeListStats(rr)
}

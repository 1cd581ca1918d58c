// Package checkpoint defines GPSC, the durable binary snapshot format of
// the GPS sampling data plane, and the primitives its encoders and decoders
// share. GPSC is the sibling of the GPSB edge framing in internal/stream:
// where GPSB makes a stream durable, GPSC makes the *summary* of a stream
// durable — the paper's central object, a bounded reservoir that is a
// sufficient statistic for an unbounded stream, serialized so a process can
// restart (or migrate hosts) without discarding hours of ingestion.
//
// # Format
//
// Every GPSC document is
//
//	"GPSC" | version (1 byte) | kind (1 byte) | payload | crc32 (4 bytes LE)
//
// where the payload layout is fixed by the kind (sampler, engine, or
// in-stream estimator; see the core and engine packages for the payload
// specs) and the trailing CRC-32 (IEEE) covers every preceding byte,
// including the header. Payload scalars are little-endian fixed-width words
// or uvarints; records are self-delimiting, so documents can be embedded
// back to back (the engine container holds one sampler document per shard).
//
// # Decoder contract
//
// Decoders built on Reader are strict: a wrong magic, an unknown version or
// kind, a truncated word, an oversized varint, or a checksum mismatch all
// return errors — never a panic — and nothing is allocated based on
// untrusted lengths: claimed counts only ever drive loops whose every
// iteration consumes input, so memory grows in proportion to bytes actually
// parsed, not to what a forged header promises.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Format constants.
const (
	// Version is the baseline GPSC format version. Version2 documents add
	// the forward-decay state (decay parameters, landmark, horizon, and
	// per-entry event timestamps); encoders emit it only for decayed
	// samplers, so undecayed checkpoints stay byte-identical to earlier
	// releases, and decoders accept both (a Version document restores as
	// undecayed). Version3 documents add the turnstile block — a feature
	// flags word selecting the decay section and the deletion counters — and
	// backed the first KindWindow layout (merged retired panes plus a live
	// engine container); encoders emit Version3 only for state earlier
	// versions cannot carry, so v1/v2 documents stay byte-identical and
	// every state keeps exactly one serialized form. Version4 is the
	// KindWindow layout of per-shard pane chains and is valid for that kind
	// only; Version3 window documents still decode through a legacy reader.
	Version  = 1
	Version2 = 2
	Version3 = 3
	Version4 = 4

	// Document kinds: the byte after the version selects the payload layout.
	KindSampler  = 0x01 // one core.Sampler
	KindEngine   = 0x02 // an engine.Parallel container of per-shard samplers
	KindInStream = 0x03 // a core.InStream (sampler + estimator accumulators)
	KindWindow   = 0x04 // a windowed engine.Parallel: window geometry plus per-shard pane chains
	KindMulti    = 0x05 // a multi-stream container: a named directory of engine/window documents

	// ContentType is the MIME type the service uses when a checkpoint
	// travels over HTTP (GET /v1/checkpoint).
	ContentType = "application/x-gps-checkpoint"

	// FileExt is the conventional extension of checkpoint files; Latest and
	// Prune only consider files carrying it.
	FileExt = ".gpsc"

	// MaxStringLen bounds every length-prefixed string in a GPSC document
	// (weight names); longer claims are rejected before allocation.
	MaxStringLen = 256
)

// magic starts every GPSC document.
const magic = "GPSC"

// ErrChecksum is returned (wrapped) when a document's trailing CRC does not
// match its content.
var ErrChecksum = errors.New("checkpoint: checksum mismatch")

// Writer encodes one GPSC document. Construct with NewWriter (which emits
// the header), write the payload with the typed methods, and call Finish to
// append the checksum and flush. Errors latch: after the first failure every
// method is a no-op and Finish reports the error.
type Writer struct {
	w   *bufio.Writer
	crc uint32
	err error
}

// NewWriter returns a Writer over w with the version-1 GPSC header for the
// given kind already written.
func NewWriter(w io.Writer, kind byte) *Writer {
	return NewWriterVersion(w, kind, Version)
}

// NewWriterVersion is NewWriter with an explicit format version; encoders
// pick Version2 when the payload carries forward-decay state.
func NewWriterVersion(w io.Writer, kind, version byte) *Writer {
	cw := &Writer{w: bufio.NewWriter(w)}
	if version < Version || version > Version4 {
		cw.err = fmt.Errorf("checkpoint: cannot write unknown GPSC version %d", version)
		return cw
	}
	cw.Raw([]byte(magic))
	cw.Raw([]byte{version, kind})
	return cw
}

// Raw appends bytes verbatim (checksummed like everything else).
func (w *Writer) Raw(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	_, w.err = w.w.Write(b)
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Raw(buf[:binary.PutUvarint(buf[:], v)])
}

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Raw(buf[:])
}

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Raw(buf[:])
}

// F64 appends a float64 as its IEEE-754 bits (little-endian).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string. Strings longer than MaxStringLen
// fail the writer: they could never be decoded.
func (w *Writer) String(s string) {
	if w.err == nil && len(s) > MaxStringLen {
		w.err = fmt.Errorf("checkpoint: string of %d bytes exceeds limit %d", len(s), MaxStringLen)
		return
	}
	w.Uvarint(uint64(len(s)))
	w.Raw([]byte(s))
}

// Finish appends the CRC-32 of everything written so far, flushes, and
// returns the first error encountered.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w.crc)
	if _, err := w.w.Write(buf[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Err returns the writer's latched error, if any.
func (w *Writer) Err() error { return w.err }

// Reader decodes one GPSC document. Construct with NewReader, check the
// header with Header, read the payload with the typed methods, and call
// Finish to verify the checksum. Errors latch: after the first failure every
// method returns the zero value and Err reports the failure, so decode loops
// must test Err (or the method's error effect via Err) each iteration.
type Reader struct {
	br      *bufio.Reader
	crc     uint32
	err     error
	version byte
}

// NewReader returns a Reader over r. When r is itself a *bufio.Reader it is
// used directly, so back-to-back embedded documents can share one reader
// without losing buffered bytes between them.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{br: br}
}

// Err returns the reader's latched error, if any.
func (r *Reader) Err() error { return r.err }

// fail latches err (wrapped with context) and returns it.
func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a document any
// end of input is a truncation, never a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFull reads exactly len(b) bytes into b, checksumming them.
func (r *Reader) readFull(b []byte) error {
	if r.err != nil {
		return r.err
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		return r.fail(fmt.Errorf("checkpoint: %w", noEOF(err)))
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, b)
	return nil
}

// Header reads and validates the GPSC header, returning the document kind.
func (r *Reader) Header() (kind byte, err error) {
	var hdr [len(magic) + 2]byte
	if err := r.readFull(hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, r.fail(errors.New("checkpoint: not a GPSC document (bad magic)"))
	}
	switch hdr[len(magic)] {
	case Version, Version2, Version3, Version4:
		r.version = hdr[len(magic)]
	default:
		return 0, r.fail(fmt.Errorf("checkpoint: unsupported GPSC version %d", hdr[len(magic)]))
	}
	kind = hdr[len(magic)+1]
	if r.version == Version4 && kind != KindWindow {
		return 0, r.fail(fmt.Errorf("checkpoint: GPSC version %d is defined for window documents only", Version4))
	}
	switch kind {
	case KindSampler, KindEngine, KindInStream:
		return kind, nil
	case KindWindow:
		if r.version < Version3 {
			return 0, r.fail(fmt.Errorf("checkpoint: window document requires GPSC version %d or %d, got %d",
				Version3, Version4, r.version))
		}
		return kind, nil
	case KindMulti:
		// Introduced with the multi-stream serving plane, after the
		// turnstile format: only Version3 encoders ever emit it.
		if r.version != Version3 {
			return 0, r.fail(fmt.Errorf("checkpoint: multi-stream document requires GPSC version %d, got %d",
				Version3, r.version))
		}
		return kind, nil
	}
	return 0, r.fail(fmt.Errorf("checkpoint: unknown document kind %#x", kind))
}

// Version returns the format version of the document whose header has been
// read (0 before Header). Payload decoders branch on it for version-gated
// sections.
func (r *Reader) Version() byte { return r.version }

// ExpectKind reads the header and fails unless the document has the given
// kind.
func (r *Reader) ExpectKind(kind byte) error {
	got, err := r.Header()
	if err != nil {
		return err
	}
	if got != kind {
		return r.fail(fmt.Errorf("checkpoint: document kind %#x, want %#x", got, kind))
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		b, err := r.br.ReadByte()
		if err != nil {
			r.fail(fmt.Errorf("checkpoint: varint: %w", noEOF(err)))
			return 0
		}
		r.crc = crc32.Update(r.crc, crc32.IEEETable, []byte{b})
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if shift == 63 && b > 1 {
				r.fail(errors.New("checkpoint: varint overflows uint64"))
				return 0
			}
			return v
		}
	}
	r.fail(errors.New("checkpoint: varint too long"))
	return 0
}

// Count reads a uvarint length/count field that must fit in an int and not
// exceed max. It is the bounds-checked form every slice length must use.
func (r *Reader) Count(what string, max uint64) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > max {
		r.fail(fmt.Errorf("checkpoint: %s count %d exceeds limit %d", what, v, max))
		return 0
	}
	return int(v)
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	var buf [4]byte
	if r.readFull(buf[:]) != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	var buf [8]byte
	if r.readFull(buf[:]) != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// FiniteF64 reads a float64 and fails on NaN or ±Inf.
func (r *Reader) FiniteF64(what string) float64 {
	v := r.F64()
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.fail(fmt.Errorf("checkpoint: %s is not finite", what))
		return 0
	}
	return v
}

// String reads a length-prefixed string of at most MaxStringLen bytes.
func (r *Reader) String() string {
	n := r.Count("string length", MaxStringLen)
	if r.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if r.readFull(buf) != nil {
		return ""
	}
	return string(buf)
}

// Finish reads the document's trailing CRC and verifies it against the
// bytes consumed so far. It must be called exactly once, after the payload.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc // captured before the trailer is read (it is not covered)
	var buf [4]byte
	if _, err := io.ReadFull(r.br, buf[:]); err != nil {
		return r.fail(fmt.Errorf("checkpoint: checksum: %w", noEOF(err)))
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return r.fail(fmt.Errorf("%w: document says %#08x, content hashes to %#08x", ErrChecksum, got, want))
	}
	return nil
}

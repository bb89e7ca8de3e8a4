// Package wire implements the transfer syntax of the engineering viewpoint:
// the concrete byte representations of values and the message frames that
// protocol objects exchange over a communications interface.
//
// Two representations are provided on purpose, as the two values of Codec:
//
//   - Native: a compact little-endian encoding, standing in for a host's
//     local representation;
//   - Canonical: an XDR-style big-endian encoding with 4-byte alignment,
//     standing in for the network-canonical representation of a
//     heterogeneous federation.
//
// They differ in two choices only — byte order, and whether booleans are
// widened and opaque data padded to four bytes — so one encoder and one
// bounded cursor serve both. Access transparency (tutorial Section 9.1) is
// achieved by stubs that marshal into whichever representation the channel
// negotiated; the measurable cost difference between them is Experiment E4
// in EXPERIMENTS.md.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/values"
)

// Decoding error sentinels.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadTag    = errors.New("wire: unknown tag")
	ErrTooLarge  = errors.New("wire: length exceeds limit")
	// ErrTooDeep refuses a value nested past the transfer syntax's depth
	// bound, on encode and on decode alike.
	ErrTooDeep = errors.New("wire: value nested too deep")
)

// MaxLen bounds any single length field (strings, sequences, records) to
// keep a corrupted or malicious frame from causing huge allocations.
const MaxLen = 16 << 20

// maxDepth bounds how deeply records, sequences, anys and the data types an
// any carries may nest. The decoder recurses once per level, so without a
// bound one small frame of nested sequences from any peer exhausts the
// goroutine stack — a fatal error Go cannot recover from. The encoder
// refuses the same values, so every frame an end writes the other can read.
// The deepest values the tree itself sends, interface types travelling as
// values, are at most 12 levels (the relocator's).
const maxDepth = 64

// CodecID identifies a codec in a frame header.
type CodecID uint8

// The registered codec identifiers.
const (
	CodecCanonical CodecID = 1
	CodecNative    CodecID = 2
)

// Codec is one representation of the transfer syntax: Native or
// Canonical, its only two values. It is comparable and safe for concurrent
// use; the zero Codec is neither and ByID never returns it.
type Codec struct {
	id  CodecID
	xdr bool // big-endian, 4-byte booleans, opaque data padded to 4 bytes
}

// The two representations.
var (
	// Canonical is the XDR-style big-endian network representation.
	Canonical = Codec{id: CodecCanonical, xdr: true}
	// Native is the compact little-endian host representation.
	Native = Codec{id: CodecNative}
)

// ByID returns the codec registered under id.
func ByID(id CodecID) (Codec, error) {
	switch id {
	case CodecCanonical:
		return Canonical, nil
	case CodecNative:
		return Native, nil
	}
	return Codec{}, fmt.Errorf("%w: codec id %d", ErrBadTag, id)
}

// ID returns the codec's frame identifier.
func (c Codec) ID() CodecID { return c.id }

// nested reports whether a value of kind k holds others, and so counts as
// one level against maxDepth.
func nested(k values.Kind) bool {
	return k == values.KindRecord || k == values.KindSeq || k == values.KindAny
}

// ---------------------------------------------------------------------------
// the encoder

// AppendValue appends the encoding of v to dst and returns the extended
// slice. A value nested deeper than the decoder accepts is refused with
// ErrTooDeep.
func (c Codec) AppendValue(dst []byte, v values.Value) ([]byte, error) {
	return c.appendValue(dst, v, 0)
}

// appendValue encodes v below depth enclosing levels.
func (c Codec) appendValue(dst []byte, v values.Value, depth int) ([]byte, error) {
	if nested(v.Kind()) {
		if depth++; depth > maxDepth {
			return nil, ErrTooDeep
		}
	}
	dst = append(dst, byte(v.Kind()))
	var err error
	switch v.Kind() {
	case values.KindNull:
	case values.KindBool:
		var u byte
		if b, _ := v.AsBool(); b {
			u = 1
		}
		if c.xdr {
			return c.appendU32(dst, uint32(u)), nil // XDR booleans are 4 bytes
		}
		return append(dst, u), nil
	case values.KindInt:
		i, _ := v.AsInt()
		return c.appendU64(dst, uint64(i)), nil
	case values.KindUint:
		u, _ := v.AsUint()
		return c.appendU64(dst, u), nil
	case values.KindFloat:
		f, _ := v.AsFloat()
		return c.appendU64(dst, math.Float64bits(f)), nil
	case values.KindString:
		s, _ := v.AsString()
		return appendOpaque(c, dst, s), nil
	case values.KindEnum:
		s, _ := v.AsEnum()
		return appendOpaque(c, dst, s), nil
	case values.KindBytes:
		b, _ := v.BytesView()
		return appendOpaque(c, dst, b), nil
	case values.KindRecord:
		dst = c.appendU32(dst, uint32(v.NumFields()))
		for i := 0; i < v.NumFields() && err == nil; i++ {
			f := v.FieldAt(i)
			dst = appendOpaque(c, dst, f.Name)
			dst, err = c.appendValue(dst, f.Value, depth)
		}
	case values.KindSeq:
		dst = c.appendU32(dst, uint32(v.Len()))
		for i := 0; i < v.Len() && err == nil; i++ {
			dst, err = c.appendValue(dst, v.ElemAt(i), depth)
		}
	case values.KindAny:
		dt, inner, _ := v.AsAny()
		if dst, err = c.appendDataType(dst, dt, depth); err == nil {
			dst, err = c.appendValue(dst, inner, depth)
		}
	default:
		err = fmt.Errorf("%w: kind %v", ErrBadTag, v.Kind())
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// appendDataType encodes an any's data type below depth enclosing levels;
// every non-nil data type is one level.
func (c Codec) appendDataType(dst []byte, t *values.DataType, depth int) ([]byte, error) {
	if t == nil {
		return append(dst, 0xff), nil // nil marker
	}
	if depth++; depth > maxDepth {
		return nil, ErrTooDeep
	}
	dst = append(dst, byte(t.Kind))
	dst = appendOpaque(c, dst, t.Name)
	var err error
	switch t.Kind {
	case values.KindEnum:
		dst = c.appendU32(dst, uint32(len(t.Symbols)))
		for _, s := range t.Symbols {
			dst = appendOpaque(c, dst, s)
		}
	case values.KindRecord:
		dst = c.appendU32(dst, uint32(len(t.Fields)))
		for i := 0; i < len(t.Fields) && err == nil; i++ {
			dst = appendOpaque(c, dst, t.Fields[i].Name)
			dst, err = c.appendDataType(dst, t.Fields[i].Type, depth)
		}
	case values.KindSeq:
		dst, err = c.appendDataType(dst, t.Elem, depth)
	}
	return dst, err
}

func (c Codec) appendU32(dst []byte, u uint32) []byte {
	if c.xdr {
		return binary.BigEndian.AppendUint32(dst, u)
	}
	return binary.LittleEndian.AppendUint32(dst, u)
}

func (c Codec) appendU64(dst []byte, u uint64) []byte {
	if c.xdr {
		return binary.BigEndian.AppendUint64(dst, u)
	}
	return binary.LittleEndian.AppendUint64(dst, u)
}

// zeroPad supplies XDR padding bytes without a per-call allocation.
var zeroPad [4]byte

// appendOpaque appends a length-prefixed string or byte slice, padded with
// zeros to a 4-byte boundary XDR-style under the canonical representation.
// Taking a string as it is avoids a conversion (and its allocation) on the
// encode hot path.
func appendOpaque[T string | []byte](c Codec, dst []byte, s T) []byte {
	dst = c.appendU32(dst, uint32(len(s)))
	dst = append(dst, s...)
	if c.xdr {
		dst = append(dst, zeroPad[:(4-len(s)%4)%4]...)
	}
	return dst
}

// ---------------------------------------------------------------------------
// the cursor

// ReadValue decodes one value from data starting at off, returning the
// value and the offset just past it. A value nested deeper than the
// encoder writes is refused with ErrTooDeep.
func (c Codec) ReadValue(data []byte, off int) (values.Value, int, error) {
	r := reader{data: data, off: off, codec: c}
	v := r.value()
	return v, r.off, r.err
}

// reader is the one bounds-checked cursor over a frame: the header's
// fields (always big-endian, never padded) and the payload's values (in
// its codec's representation). Its first error is sticky: every later read
// returns a zero result and leaves the offset alone, so a caller checks err
// once, after a run of reads.
type reader struct {
	data  []byte
	off   int
	codec Codec
	depth int  // levels of nesting open above the next read
	carve bool // bytes payloads go to shared chunks (a FlowBatch's elements)
	err   error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes the next n bytes, or fails with ErrTruncated.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// be16, be32 and be64 read the header's big-endian integers.
func (r *reader) be16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *reader) be32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) be64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// u32 and u64 read the payload's integers in the codec's byte order.
func (r *reader) u32() uint32 {
	if r.codec.xdr {
		return r.be32()
	}
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if r.codec.xdr {
		return r.be64()
	}
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a payload length prefix and holds it to MaxLen; what names
// the counted things in the error.
func (r *reader) count(what string) int {
	n := r.u32()
	if n > MaxLen {
		r.fail(fmt.Errorf("%w: %d %s", ErrTooLarge, n, what))
		return 0
	}
	return int(n)
}

// opaque reads a payload string or byte slice and its padding. The result
// aliases the frame.
func (r *reader) opaque() []byte {
	n := r.count("bytes")
	b := r.take(n)
	if r.codec.xdr {
		r.take((4 - n%4) % 4)
	}
	return b
}

// hdrBytes reads a header string or byte slice: a big-endian length and
// the bytes, unpadded. The result aliases the frame.
func (r *reader) hdrBytes() []byte {
	n := r.be32()
	if n > MaxLen {
		r.fail(fmt.Errorf("%w: header field %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.take(int(n))
}

// enter opens one level of nesting, or fails with ErrTooDeep.
func (r *reader) enter() bool {
	if r.depth++; r.depth > maxDepth {
		r.fail(ErrTooDeep)
	}
	return r.err == nil
}

func (r *reader) value() values.Value {
	kind := values.Kind(r.u8())
	if r.err != nil || nested(kind) && !r.enter() {
		return values.Value{}
	}
	var v values.Value
	switch kind {
	case values.KindNull:
	case values.KindBool:
		if r.codec.xdr {
			v = values.Bool(r.u32() != 0)
		} else {
			v = values.Bool(r.u8() != 0)
		}
	case values.KindInt:
		v = values.Int(int64(r.u64()))
	case values.KindUint:
		v = values.Uint(r.u64())
	case values.KindFloat:
		v = values.Float(math.Float64frombits(r.u64()))
	case values.KindString:
		v = values.Str(internBytes(r.opaque()))
	case values.KindEnum:
		v = values.Enum(internBytes(r.opaque()))
	case values.KindBytes:
		if b := r.opaque(); r.carve && len(b) <= carveMax {
			v = values.BytesOwned(carveBytes(b))
		} else {
			v = values.BytesVal(b)
		}
	case values.KindRecord:
		v = r.record()
	case values.KindSeq:
		v = r.seq()
	case values.KindAny:
		dt := r.dataType()
		if inner := r.value(); r.err == nil {
			v = values.Any(dt, inner)
		}
	default:
		r.fail(fmt.Errorf("%w: value tag %d", ErrBadTag, kind))
	}
	if nested(kind) {
		r.depth--
	}
	return v
}

// record parses record fields into a pooled scratch slice, then copies them
// into an exactly-sized slice owned by the resulting value. Parsing into
// scratch (rather than pre-allocating from the length prefix) means a
// forged field count cannot reserve huge capacity, and the single copy-out
// replaces the two allocations of grow-while-parsing plus values.Record's
// defensive copy.
func (r *reader) record() values.Value {
	n := r.count("record fields")
	sp := fieldScratch.get()
	scratch := (*sp)[:0]
	for i := 0; i < n && r.err == nil; i++ {
		name := internBytes(r.opaque())
		scratch = append(scratch, values.F(name, r.value()))
	}
	var v values.Value
	if r.err == nil {
		out := make([]values.Field, len(scratch))
		copy(out, scratch)
		v = values.RecordOwned(out)
	}
	fieldScratch.put(sp, scratch)
	return v
}

// seq is record for sequences; see there.
func (r *reader) seq() values.Value {
	n := r.count("elements")
	sp := valueScratch.get()
	scratch := (*sp)[:0]
	for i := 0; i < n && r.err == nil; i++ {
		scratch = append(scratch, r.value())
	}
	var v values.Value
	if r.err == nil {
		out := make([]values.Value, len(scratch))
		copy(out, scratch)
		v = values.SeqOwned(out)
	}
	valueScratch.put(sp, scratch)
	return v
}

// dataType reads an any's data type; every non-nil one is a level.
func (r *reader) dataType() *values.DataType {
	tag := r.u8()
	if r.err != nil || tag == 0xff {
		return nil
	}
	kind := values.Kind(tag)
	if !kind.Valid() {
		r.fail(fmt.Errorf("%w: data type tag %d", ErrBadTag, tag))
		return nil
	}
	if !r.enter() {
		return nil
	}
	dt := &values.DataType{Kind: kind, Name: internBytes(r.opaque())}
	switch kind {
	case values.KindEnum:
		for i, n := 0, r.count("symbols"); i < n && r.err == nil; i++ {
			dt.Symbols = append(dt.Symbols, internBytes(r.opaque()))
		}
	case values.KindRecord:
		for i, n := 0, r.count("fields"); i < n && r.err == nil; i++ {
			name := internBytes(r.opaque())
			dt.Fields = append(dt.Fields, values.FT(name, r.dataType()))
		}
	case values.KindSeq:
		dt.Elem = r.dataType()
	}
	r.depth--
	return dt
}

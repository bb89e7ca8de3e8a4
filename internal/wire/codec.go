// Package wire implements the transfer syntax of the engineering viewpoint:
// the concrete byte representations of values and the message frames that
// protocol objects exchange over a communications interface.
//
// Two codecs are provided on purpose:
//
//   - native: a compact little-endian encoding, standing in for a host's
//     local representation;
//   - canonical: an XDR-style big-endian encoding with 4-byte alignment,
//     standing in for the network-canonical representation of a
//     heterogeneous federation.
//
// Access transparency (tutorial Section 9.1) is achieved by stubs that
// marshal into whichever codec the channel negotiated; the measurable cost
// difference between the codecs is Experiment E4 in EXPERIMENTS.md.
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
)

// MaxLen bounds any single length field (strings, sequences, records) to
// keep a corrupted or malicious frame from causing huge allocations.
const MaxLen = 16 << 20

// CodecID identifies a codec in a frame header.
type CodecID uint8

// The registered codec identifiers.
const (
	CodecCanonical CodecID = 1
	CodecNative    CodecID = 2
)

// Codec converts between values and bytes. Implementations are stateless
// and safe for concurrent use.
type Codec interface {
	// ID returns the codec's frame identifier.
	ID() CodecID
	// AppendValue appends the encoding of v to dst and returns the
	// extended slice.
	AppendValue(dst []byte, v values.Value) ([]byte, error)
	// ReadValue decodes one value from data starting at off, returning the
	// value and the offset just past it.
	ReadValue(data []byte, off int) (values.Value, int, error)
}

// ByID returns the codec registered under id.
func ByID(id CodecID) (Codec, error) {
	switch id {
	case CodecCanonical:
		return Canonical, nil
	case CodecNative:
		return Native, nil
	}
	return nil, fmt.Errorf("%w: codec id %d", ErrBadTag, id)
}

// The two codec singletons.
var (
	// Canonical is the XDR-style big-endian network representation.
	Canonical Codec = canonicalCodec{}
	// Native is the compact little-endian host representation.
	Native Codec = nativeCodec{}
)

// ---------------------------------------------------------------------------
// native codec: compact little-endian, no padding.

type nativeCodec struct{}

func (nativeCodec) ID() CodecID { return CodecNative }

func (c nativeCodec) AppendValue(dst []byte, v values.Value) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case values.KindNull:
		return dst, nil
	case values.KindBool:
		b, _ := v.AsBool()
		if b {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case values.KindInt:
		i, _ := v.AsInt()
		return binary.LittleEndian.AppendUint64(dst, uint64(i)), nil
	case values.KindUint:
		u, _ := v.AsUint()
		return binary.LittleEndian.AppendUint64(dst, u), nil
	case values.KindFloat:
		f, _ := v.AsFloat()
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), nil
	case values.KindString:
		s, _ := v.AsString()
		return c.appendString(dst, s), nil
	case values.KindEnum:
		s, _ := v.AsEnum()
		return c.appendString(dst, s), nil
	case values.KindBytes:
		b, _ := v.BytesView()
		return c.appendBytes(dst, b), nil
	case values.KindRecord:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.NumFields()))
		var err error
		for i := 0; i < v.NumFields(); i++ {
			f := v.FieldAt(i)
			dst = c.appendString(dst, f.Name)
			if dst, err = c.AppendValue(dst, f.Value); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case values.KindSeq:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Len()))
		var err error
		for i := 0; i < v.Len(); i++ {
			if dst, err = c.AppendValue(dst, v.ElemAt(i)); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case values.KindAny:
		dt, inner, _ := v.AsAny()
		dst = appendDataType(dst, dt, binary.LittleEndian, c.appendString)
		return c.AppendValue(dst, inner)
	}
	return nil, fmt.Errorf("%w: kind %v", ErrBadTag, v.Kind())
}

func (nativeCodec) appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// appendString is appendBytes for strings, avoiding the []byte conversion
// (and its allocation) on the encode hot path.
func (nativeCodec) appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (c nativeCodec) ReadValue(data []byte, off int) (values.Value, int, error) {
	return readValue(data, off, binary.LittleEndian, false)
}

// ---------------------------------------------------------------------------
// canonical codec: XDR-style big-endian with 4-byte alignment of opaque data.

type canonicalCodec struct{}

func (canonicalCodec) ID() CodecID { return CodecCanonical }

func (c canonicalCodec) AppendValue(dst []byte, v values.Value) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case values.KindNull:
		return dst, nil
	case values.KindBool:
		b, _ := v.AsBool()
		var u uint32
		if b {
			u = 1
		}
		return binary.BigEndian.AppendUint32(dst, u), nil // XDR booleans are 4 bytes
	case values.KindInt:
		i, _ := v.AsInt()
		return binary.BigEndian.AppendUint64(dst, uint64(i)), nil
	case values.KindUint:
		u, _ := v.AsUint()
		return binary.BigEndian.AppendUint64(dst, u), nil
	case values.KindFloat:
		f, _ := v.AsFloat()
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(f)), nil
	case values.KindString:
		s, _ := v.AsString()
		return c.appendString(dst, s), nil
	case values.KindEnum:
		s, _ := v.AsEnum()
		return c.appendString(dst, s), nil
	case values.KindBytes:
		b, _ := v.BytesView()
		return c.appendBytes(dst, b), nil
	case values.KindRecord:
		dst = binary.BigEndian.AppendUint32(dst, uint32(v.NumFields()))
		var err error
		for i := 0; i < v.NumFields(); i++ {
			f := v.FieldAt(i)
			dst = c.appendString(dst, f.Name)
			if dst, err = c.AppendValue(dst, f.Value); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case values.KindSeq:
		dst = binary.BigEndian.AppendUint32(dst, uint32(v.Len()))
		var err error
		for i := 0; i < v.Len(); i++ {
			if dst, err = c.AppendValue(dst, v.ElemAt(i)); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case values.KindAny:
		dt, inner, _ := v.AsAny()
		dst = appendDataType(dst, dt, binary.BigEndian, c.appendString)
		return c.AppendValue(dst, inner)
	}
	return nil, fmt.Errorf("%w: kind %v", ErrBadTag, v.Kind())
}

// zeroPad supplies XDR padding bytes without a per-call allocation.
var zeroPad [4]byte

// appendBytes appends a big-endian length followed by the data padded with
// zeros to a 4-byte boundary, XDR opaque style.
func (canonicalCodec) appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	dst = append(dst, b...)
	if pad := (4 - len(b)%4) % 4; pad > 0 {
		dst = append(dst, zeroPad[:pad]...)
	}
	return dst
}

// appendString is appendBytes for strings, avoiding the []byte conversion
// (and its allocation) on the encode hot path.
func (canonicalCodec) appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	dst = append(dst, s...)
	if pad := (4 - len(s)%4) % 4; pad > 0 {
		dst = append(dst, zeroPad[:pad]...)
	}
	return dst
}

func (c canonicalCodec) ReadValue(data []byte, off int) (values.Value, int, error) {
	return readValue(data, off, binary.BigEndian, true)
}

// ---------------------------------------------------------------------------
// shared decoder

func readValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
	if off >= len(data) {
		return values.Value{}, off, ErrTruncated
	}
	kind := values.Kind(data[off])
	off++
	switch kind {
	case values.KindNull:
		return values.Null(), off, nil
	case values.KindBool:
		if padded {
			u, off2, err := readU32(data, off, order)
			if err != nil {
				return values.Value{}, off, err
			}
			return values.Bool(u != 0), off2, nil
		}
		if off >= len(data) {
			return values.Value{}, off, ErrTruncated
		}
		return values.Bool(data[off] != 0), off + 1, nil
	case values.KindInt:
		u, off2, err := readU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Int(int64(u)), off2, nil
	case values.KindUint:
		u, off2, err := readU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Uint(u), off2, nil
	case values.KindFloat:
		u, off2, err := readU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Float(math.Float64frombits(u)), off2, nil
	case values.KindString:
		b, off2, err := readBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Str(internBytes(b)), off2, nil
	case values.KindEnum:
		b, off2, err := readBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Enum(internBytes(b)), off2, nil
	case values.KindBytes:
		b, off2, err := readBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.BytesVal(b), off2, nil
	case values.KindRecord:
		return readRecordValue(data, off, order, padded)
	case values.KindSeq:
		return readSeqValue(data, off, order, padded)
	case values.KindAny:
		dt, off2, err := readDataType(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		inner, off3, err := readValue(data, off2, order, padded)
		if err != nil {
			return values.Value{}, off2, err
		}
		return values.Any(dt, inner), off3, nil
	}
	return values.Value{}, off, fmt.Errorf("%w: value tag %d", ErrBadTag, kind)
}

// readRecordValue parses record fields into a pooled scratch slice, then
// copies them into an exactly-sized slice owned by the resulting value.
// Parsing into scratch (rather than pre-allocating from the length prefix)
// means a forged field count cannot reserve huge capacity, and the single
// copy-out replaces the two allocations of grow-while-parsing plus
// values.Record's defensive copy.
func readRecordValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
	n, off2, err := readU32(data, off, order)
	if err != nil {
		return values.Value{}, off, err
	}
	if n > MaxLen {
		return values.Value{}, off, fmt.Errorf("%w: %d record fields", ErrTooLarge, n)
	}
	off = off2
	sp := getFieldScratch()
	scratch := (*sp)[:0]
	defer func() { putFieldScratch(sp, scratch) }()
	for i := uint32(0); i < n; i++ {
		nameB, offN, err := readBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		fv, offV, err := readValue(data, offN, order, padded)
		if err != nil {
			return values.Value{}, offN, err
		}
		scratch = append(scratch, values.F(internBytes(nameB), fv))
		off = offV
	}
	out := make([]values.Field, len(scratch))
	copy(out, scratch)
	return values.RecordOwned(out), off, nil
}

// readSeqValue is readRecordValue for sequences; see there.
func readSeqValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
	n, off2, err := readU32(data, off, order)
	if err != nil {
		return values.Value{}, off, err
	}
	if n > MaxLen {
		return values.Value{}, off, fmt.Errorf("%w: %d elements", ErrTooLarge, n)
	}
	off = off2
	sp := getValueScratch()
	scratch := (*sp)[:0]
	defer func() { putValueScratch(sp, scratch) }()
	for i := uint32(0); i < n; i++ {
		ev, offE, err := readValue(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		scratch = append(scratch, ev)
		off = offE
	}
	out := make([]values.Value, len(scratch))
	copy(out, scratch)
	return values.SeqOwned(out), off, nil
}

func readU32(data []byte, off int, order binary.ByteOrder) (uint32, int, error) {
	if off+4 > len(data) {
		return 0, off, ErrTruncated
	}
	return order.Uint32(data[off : off+4]), off + 4, nil
}

func readU64(data []byte, off int, order binary.ByteOrder) (uint64, int, error) {
	if off+8 > len(data) {
		return 0, off, ErrTruncated
	}
	return order.Uint64(data[off : off+8]), off + 8, nil
}

func readBytes(data []byte, off int, order binary.ByteOrder, padded bool) ([]byte, int, error) {
	n, off2, err := readU32(data, off, order)
	if err != nil {
		return nil, off, err
	}
	if n > MaxLen {
		return nil, off, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	off = off2
	end := off + int(n)
	if end > len(data) {
		return nil, off, ErrTruncated
	}
	b := data[off:end]
	if padded {
		end += (4 - int(n)%4) % 4
		if end > len(data) {
			return nil, off, ErrTruncated
		}
	}
	return b, end, nil
}

// ---------------------------------------------------------------------------
// data type encoding (used for Any payloads)

func appendDataType(dst []byte, t *values.DataType, order binary.AppendByteOrder, appendString func(dst []byte, s string) []byte) []byte {
	if t == nil {
		return append(dst, 0xff) // nil marker
	}
	dst = append(dst, byte(t.Kind))
	dst = appendString(dst, t.Name)
	switch t.Kind {
	case values.KindEnum:
		dst = order.AppendUint32(dst, uint32(len(t.Symbols)))
		for _, s := range t.Symbols {
			dst = appendString(dst, s)
		}
	case values.KindRecord:
		dst = order.AppendUint32(dst, uint32(len(t.Fields)))
		for _, f := range t.Fields {
			dst = appendString(dst, f.Name)
			dst = appendDataType(dst, f.Type, order, appendString)
		}
	case values.KindSeq:
		dst = appendDataType(dst, t.Elem, order, appendString)
	}
	return dst
}

func readDataType(data []byte, off int, order binary.ByteOrder, padded bool) (*values.DataType, int, error) {
	if off >= len(data) {
		return nil, off, ErrTruncated
	}
	tag := data[off]
	off++
	if tag == 0xff {
		return nil, off, nil
	}
	kind := values.Kind(tag)
	if !kind.Valid() {
		return nil, off, fmt.Errorf("%w: data type tag %d", ErrBadTag, tag)
	}
	nameB, off2, err := readBytes(data, off, order, padded)
	if err != nil {
		return nil, off, err
	}
	off = off2
	dt := &values.DataType{Kind: kind, Name: internBytes(nameB)}
	switch kind {
	case values.KindEnum:
		n, off3, err := readU32(data, off, order)
		if err != nil {
			return nil, off, err
		}
		if n > MaxLen {
			return nil, off, fmt.Errorf("%w: %d symbols", ErrTooLarge, n)
		}
		off = off3
		for i := uint32(0); i < n; i++ {
			sb, offS, err := readBytes(data, off, order, padded)
			if err != nil {
				return nil, off, err
			}
			dt.Symbols = append(dt.Symbols, internBytes(sb))
			off = offS
		}
	case values.KindRecord:
		n, off3, err := readU32(data, off, order)
		if err != nil {
			return nil, off, err
		}
		if n > MaxLen {
			return nil, off, fmt.Errorf("%w: %d fields", ErrTooLarge, n)
		}
		off = off3
		for i := uint32(0); i < n; i++ {
			fb, offF, err := readBytes(data, off, order, padded)
			if err != nil {
				return nil, off, err
			}
			ft, offT, err := readDataType(data, offF, order, padded)
			if err != nil {
				return nil, offF, err
			}
			dt.Fields = append(dt.Fields, values.FT(internBytes(fb), ft))
			off = offT
		}
	case values.KindSeq:
		elem, off3, err := readDataType(data, off, order, padded)
		if err != nil {
			return nil, off, err
		}
		dt.Elem = elem
		off = off3
	}
	return dt, off, nil
}

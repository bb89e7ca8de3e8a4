package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/values"
)

// The transfer syntax as it was written before one encoder and one cursor
// served both representations: two hand-copied encoders and a decoder that
// threads (offset, byte order, padding) through every call. It is kept,
// renamed but otherwise verbatim, as the reference model that
// TestCodecMatchesReference and FuzzCodecMatchesReference hold Codec to.
// It has no depth bound: only call its decoder on input that Codec found
// nested less than maxDepth deep.

// refCodec is what the two reference codecs share.
type refCodec interface {
	AppendValue(dst []byte, v values.Value) ([]byte, error)
	ReadValue(data []byte, off int) (values.Value, int, error)
}

// refCodecs returns the reference codec of each representation.
func refCodecs() map[Codec]refCodec {
	return map[Codec]refCodec{Native: refNative{}, Canonical: refCanonical{}}
}

// TestCodecMatchesReference holds the one encoder and the one cursor to the
// encoders and decoder they replaced: over the sample values and 20,000
// seeded random ones, in both representations, Codec writes the
// reference's bytes and both decoders read them back alike.
func TestCodecMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	vs := sampleValues()
	for i := 0; i < 20000; i++ {
		vs = append(vs, randomValue(r, 4))
	}
	for c, ref := range refCodecs() {
		for _, v := range vs {
			got, err := c.AppendValue(nil, v)
			if err != nil {
				t.Fatalf("%s: encode %v: %v", codecName(c), v, err)
			}
			want, err := ref.AppendValue(nil, v)
			if err != nil {
				t.Fatalf("%s: reference encode %v: %v", codecName(c), v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %v encodes to\n%x, reference\n%x", codecName(c), v, got, want)
			}
			agree(t, c, ref, got)
		}
	}
}

// FuzzCodecMatchesReference holds the cursor to the reference decoder on
// any input nested less than maxDepth deep, in both representations: both
// fail with the same sentinel, or both read values that encode to the
// same bytes, to the same offset, under either encoder. Run with
// `go test -run='^$' -fuzz=FuzzCodecMatchesReference ./internal/wire/`.
func FuzzCodecMatchesReference(f *testing.F) {
	for c := range refCodecs() {
		for _, v := range sampleValues() {
			b, err := c.AppendValue(nil, v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for c, ref := range refCodecs() {
			if _, _, err := c.ReadValue(data, 0); errors.Is(err, ErrTooDeep) {
				continue // the reference has no bound to agree on
			}
			agree(t, c, ref, data)
		}
	})
}

// agree decodes data with c and with its reference and fails unless both
// fail with the same sentinel, or both succeed at the same offset with
// values whose encodings — by c and by the reference — are one byte
// string. Comparing encodings rather than Equal also holds NaNs and data
// type names to account.
func agree(t testing.TB, c Codec, ref refCodec, data []byte) {
	t.Helper()
	v, off, err := c.ReadValue(data, 0)
	rv, roff, rerr := ref.ReadValue(data, 0)
	for _, sentinel := range []error{ErrTruncated, ErrBadTag, ErrTooLarge} {
		if errors.Is(err, sentinel) != errors.Is(rerr, sentinel) {
			t.Fatalf("%s: %x: decoded with %v, reference %v", codecName(c), data, err, rerr)
		}
	}
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%s: %x: decoded with %v, reference %v", codecName(c), data, err, rerr)
	}
	if err != nil {
		return
	}
	if off != roff {
		t.Fatalf("%s: %x: read to %d, reference to %d", codecName(c), data, off, roff)
	}
	got, err := c.AppendValue(nil, v)
	if err != nil {
		t.Fatalf("%s: re-encode %v: %v", codecName(c), v, err)
	}
	want, err := ref.AppendValue(nil, rv)
	if err != nil {
		t.Fatalf("%s: reference re-encode %v: %v", codecName(c), rv, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %x: read %v, reference %v", codecName(c), data, v, rv)
	}
}

// ---------------------------------------------------------------------------
// native codec: compact little-endian, no padding.

type refNative struct{}

func (refNative) ID() CodecID { return CodecNative }

func (c refNative) AppendValue(dst []byte, v values.Value) ([]byte, error) {
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
		dst = refAppendDataType(dst, dt, binary.LittleEndian, c.appendString)
		return c.AppendValue(dst, inner)
	}
	return nil, fmt.Errorf("%w: kind %v", ErrBadTag, v.Kind())
}

func (refNative) appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// appendString is appendBytes for strings, avoiding the []byte conversion
// (and its allocation) on the encode hot path.
func (refNative) appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (c refNative) ReadValue(data []byte, off int) (values.Value, int, error) {
	return refReadValue(data, off, binary.LittleEndian, false)
}

// ---------------------------------------------------------------------------
// canonical codec: XDR-style big-endian with 4-byte alignment of opaque data.

type refCanonical struct{}

func (refCanonical) ID() CodecID { return CodecCanonical }

func (c refCanonical) AppendValue(dst []byte, v values.Value) ([]byte, error) {
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
		dst = refAppendDataType(dst, dt, binary.BigEndian, c.appendString)
		return c.AppendValue(dst, inner)
	}
	return nil, fmt.Errorf("%w: kind %v", ErrBadTag, v.Kind())
}

// refZeroPad supplies XDR padding bytes without a per-call allocation.
var refZeroPad [4]byte

// appendBytes appends a big-endian length followed by the data padded with
// zeros to a 4-byte boundary, XDR opaque style.
func (refCanonical) appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	dst = append(dst, b...)
	if pad := (4 - len(b)%4) % 4; pad > 0 {
		dst = append(dst, refZeroPad[:pad]...)
	}
	return dst
}

// appendString is appendBytes for strings, avoiding the []byte conversion
// (and its allocation) on the encode hot path.
func (refCanonical) appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	dst = append(dst, s...)
	if pad := (4 - len(s)%4) % 4; pad > 0 {
		dst = append(dst, refZeroPad[:pad]...)
	}
	return dst
}

func (c refCanonical) ReadValue(data []byte, off int) (values.Value, int, error) {
	return refReadValue(data, off, binary.BigEndian, true)
}

// ---------------------------------------------------------------------------
// shared decoder

func refReadValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
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
			u, off2, err := refReadU32(data, off, order)
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
		u, off2, err := refReadU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Int(int64(u)), off2, nil
	case values.KindUint:
		u, off2, err := refReadU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Uint(u), off2, nil
	case values.KindFloat:
		u, off2, err := refReadU64(data, off, order)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Float(math.Float64frombits(u)), off2, nil
	case values.KindString:
		b, off2, err := refReadBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Str(internBytes(b)), off2, nil
	case values.KindEnum:
		b, off2, err := refReadBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.Enum(internBytes(b)), off2, nil
	case values.KindBytes:
		b, off2, err := refReadBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		return values.BytesVal(b), off2, nil
	case values.KindRecord:
		return refReadRecordValue(data, off, order, padded)
	case values.KindSeq:
		return refReadSeqValue(data, off, order, padded)
	case values.KindAny:
		dt, off2, err := refReadDataType(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		inner, off3, err := refReadValue(data, off2, order, padded)
		if err != nil {
			return values.Value{}, off2, err
		}
		return values.Any(dt, inner), off3, nil
	}
	return values.Value{}, off, fmt.Errorf("%w: value tag %d", ErrBadTag, kind)
}

// refReadRecordValue parses record fields into a pooled scratch slice, then
// copies them into an exactly-sized slice owned by the resulting value.
// Parsing into scratch (rather than pre-allocating from the length prefix)
// means a forged field count cannot reserve huge capacity, and the single
// copy-out replaces the two allocations of grow-while-parsing plus
// values.Record's defensive copy.
func refReadRecordValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
	n, off2, err := refReadU32(data, off, order)
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
		nameB, offN, err := refReadBytes(data, off, order, padded)
		if err != nil {
			return values.Value{}, off, err
		}
		fv, offV, err := refReadValue(data, offN, order, padded)
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

// refReadSeqValue is refReadRecordValue for sequences; see there.
func refReadSeqValue(data []byte, off int, order binary.ByteOrder, padded bool) (values.Value, int, error) {
	n, off2, err := refReadU32(data, off, order)
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
		ev, offE, err := refReadValue(data, off, order, padded)
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

func refReadU32(data []byte, off int, order binary.ByteOrder) (uint32, int, error) {
	if off+4 > len(data) {
		return 0, off, ErrTruncated
	}
	return order.Uint32(data[off : off+4]), off + 4, nil
}

func refReadU64(data []byte, off int, order binary.ByteOrder) (uint64, int, error) {
	if off+8 > len(data) {
		return 0, off, ErrTruncated
	}
	return order.Uint64(data[off : off+8]), off + 8, nil
}

func refReadBytes(data []byte, off int, order binary.ByteOrder, padded bool) ([]byte, int, error) {
	n, off2, err := refReadU32(data, off, order)
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

func refAppendDataType(dst []byte, t *values.DataType, order binary.AppendByteOrder, appendString func(dst []byte, s string) []byte) []byte {
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
			dst = refAppendDataType(dst, f.Type, order, appendString)
		}
	case values.KindSeq:
		dst = refAppendDataType(dst, t.Elem, order, appendString)
	}
	return dst
}

func refReadDataType(data []byte, off int, order binary.ByteOrder, padded bool) (*values.DataType, int, error) {
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
	nameB, off2, err := refReadBytes(data, off, order, padded)
	if err != nil {
		return nil, off, err
	}
	off = off2
	dt := &values.DataType{Kind: kind, Name: internBytes(nameB)}
	switch kind {
	case values.KindEnum:
		n, off3, err := refReadU32(data, off, order)
		if err != nil {
			return nil, off, err
		}
		if n > MaxLen {
			return nil, off, fmt.Errorf("%w: %d symbols", ErrTooLarge, n)
		}
		off = off3
		for i := uint32(0); i < n; i++ {
			sb, offS, err := refReadBytes(data, off, order, padded)
			if err != nil {
				return nil, off, err
			}
			dt.Symbols = append(dt.Symbols, internBytes(sb))
			off = offS
		}
	case values.KindRecord:
		n, off3, err := refReadU32(data, off, order)
		if err != nil {
			return nil, off, err
		}
		if n > MaxLen {
			return nil, off, fmt.Errorf("%w: %d fields", ErrTooLarge, n)
		}
		off = off3
		for i := uint32(0); i < n; i++ {
			fb, offF, err := refReadBytes(data, off, order, padded)
			if err != nil {
				return nil, off, err
			}
			ft, offT, err := refReadDataType(data, offF, order, padded)
			if err != nil {
				return nil, offF, err
			}
			dt.Fields = append(dt.Fields, values.FT(internBytes(fb), ft))
			off = offT
		}
	case values.KindSeq:
		elem, off3, err := refReadDataType(data, off, order, padded)
		if err != nil {
			return nil, off, err
		}
		dt.Elem = elem
		off = off3
	}
	return dt, off, nil
}

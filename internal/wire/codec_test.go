package wire

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/values"
)

func codecs() []Codec { return []Codec{Native, Canonical} }

func codecName(c Codec) string {
	if c.ID() == CodecNative {
		return "native"
	}
	return "canonical"
}

func sampleValues() []values.Value {
	return []values.Value{
		values.Null(),
		values.Bool(true),
		values.Bool(false),
		values.Int(-1234567890123),
		values.Int(math.MaxInt64),
		values.Int(math.MinInt64),
		values.Uint(math.MaxUint64),
		values.Float(3.14159),
		values.Float(math.Inf(-1)),
		values.Str(""),
		values.Str("hello, 世界"),
		values.Str("odd"), // 3 bytes: exercises canonical padding
		values.BytesVal(nil),
		values.BytesVal([]byte{0, 1, 2, 3, 4}),
		values.Enum("NotToday"),
		values.Record(),
		values.Record(values.F("balance", values.Int(100)), values.F("owner", values.Str("kr"))),
		values.Seq(),
		values.Seq(values.Int(1), values.Str("two"), values.Bool(true)),
		values.Record(values.F("nested", values.Seq(values.Record(values.F("x", values.Float(1)))))),
		values.Any(values.TInt(), values.Int(42)),
		values.Any(values.TRecord("R", values.FT("a", values.TEnum("E", "x", "y"))),
			values.Record(values.F("a", values.Enum("x")))),
		values.Any(values.TSeq(values.TString()), values.Seq(values.Str("s"))),
		values.Any(nil, values.Null()),
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, c := range codecs() {
		t.Run(codecName(c), func(t *testing.T) {
			for _, v := range sampleValues() {
				buf, err := c.AppendValue(nil, v)
				if err != nil {
					t.Fatalf("encode %v: %v", v, err)
				}
				got, off, err := c.ReadValue(buf, 0)
				if err != nil {
					t.Fatalf("decode %v: %v", v, err)
				}
				if off != len(buf) {
					t.Errorf("decode %v: consumed %d of %d bytes", v, off, len(buf))
				}
				if !got.Equal(v) {
					t.Errorf("round trip: got %v, want %v", got, v)
				}
			}
		})
	}
}

func TestCanonicalPadsTo4(t *testing.T) {
	// XDR-style: opaque data padded to a 4-byte boundary.
	buf, err := Canonical.AppendValue(nil, values.Str("abc"))
	if err != nil {
		t.Fatal(err)
	}
	// tag(1) + len(4) + data(3) + pad(1) = 9
	if len(buf) != 9 {
		t.Errorf("canonical 'abc' = %d bytes, want 9", len(buf))
	}
	nbuf, err := Native.AppendValue(nil, values.Str("abc"))
	if err != nil {
		t.Fatal(err)
	}
	// tag(1) + len(4) + data(3) = 8
	if len(nbuf) != 8 {
		t.Errorf("native 'abc' = %d bytes, want 8", len(nbuf))
	}
}

func TestCodecsDiffer(t *testing.T) {
	// The two representations of the same value must actually differ —
	// otherwise access transparency would be vacuous.
	v := values.Int(1)
	n, _ := Native.AppendValue(nil, v)
	c, _ := Canonical.AppendValue(nil, v)
	if string(n) == string(c) {
		t.Error("native and canonical encodings of Int(1) are identical")
	}
}

func TestByID(t *testing.T) {
	for _, c := range codecs() {
		got, err := ByID(c.ID())
		if err != nil || got.ID() != c.ID() {
			t.Errorf("ByID(%d) = %v, %v", c.ID(), got, err)
		}
	}
	if _, err := ByID(99); err == nil {
		t.Error("ByID(99) should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, c := range codecs() {
		t.Run(codecName(c), func(t *testing.T) {
			for _, v := range sampleValues() {
				buf, err := c.AppendValue(nil, v)
				if err != nil {
					t.Fatal(err)
				}
				// Every strict prefix must fail cleanly, never panic.
				for cut := 0; cut < len(buf); cut++ {
					if _, _, err := c.ReadValue(buf[:cut], 0); err == nil {
						// A prefix can be a valid shorter value only if the
						// consumed length equals the prefix; ReadValue reports
						// how much it consumed, so check it didn't overrun.
						got, off, _ := c.ReadValue(buf[:cut], 0)
						if off > cut {
							t.Fatalf("decode of %d-byte prefix of %v overran: off=%d got=%v", cut, v, off, got)
						}
					}
				}
			}
		})
	}
}

func TestDecodeBadTag(t *testing.T) {
	for _, c := range codecs() {
		if _, _, err := c.ReadValue([]byte{0x7f}, 0); err == nil || !errors.Is(err, ErrBadTag) {
			t.Errorf("%s: bad tag error = %v", codecName(c), err)
		}
		if _, _, err := c.ReadValue(nil, 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: empty input error = %v", codecName(c), err)
		}
	}
}

func TestDecodeOversizedLength(t *testing.T) {
	// A string claiming MaxLen+1 bytes must be rejected before allocation.
	for _, c := range codecs() {
		var buf []byte
		buf = append(buf, byte(values.KindString))
		n := uint32(MaxLen + 1)
		if c.ID() == CodecNative {
			buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		} else {
			buf = append(buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		}
		if _, _, err := c.ReadValue(buf, 0); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: oversized length error = %v", codecName(c), err)
		}
	}
}

// randomValue mirrors the generator in package values' tests, with anys
// over nested data types and enums besides. String, symbol and byte
// lengths cover every residue mod 4, so canonical padding of 0 to 3 bytes
// is exercised.
func randomValue(r *rand.Rand, depth int) values.Value {
	max := 10
	if depth <= 0 {
		max = 7
	}
	switch r.Intn(max) {
	case 0:
		return values.Bool(r.Intn(2) == 0)
	case 1:
		return values.Int(r.Int63() - r.Int63())
	case 2:
		return values.Uint(r.Uint64())
	case 3:
		return values.Float(r.NormFloat64())
	case 4:
		return values.Str(randomString(r))
	case 5:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		return values.BytesVal(b)
	case 6:
		return values.Enum(randomString(r))
	case 7:
		n := r.Intn(5)
		fields := make([]values.Field, n)
		for i := range fields {
			fields[i] = values.F(string(rune('a'+i)), randomValue(r, depth-1))
		}
		return values.Record(fields...)
	case 8:
		return values.Any(randomDataType(r, depth-1), randomValue(r, depth-1))
	default:
		n := r.Intn(5)
		elems := make([]values.Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return values.Seq(elems...)
	}
}

func randomString(r *rand.Rand) string {
	var sb strings.Builder
	for i, n := 0, r.Intn(20); i < n; i++ {
		sb.WriteRune(rune('a' + r.Intn(26)))
	}
	return sb.String()
}

// randomDataType draws the data type an any carries: nil, a scalar, or an
// enum, record or sequence type nested up to depth more levels.
func randomDataType(r *rand.Rand, depth int) *values.DataType {
	max := 5
	if depth <= 0 {
		max = 3
	}
	switch r.Intn(max) {
	case 0:
		return nil
	case 1:
		scalars := []*values.DataType{values.TNull(), values.TBool(), values.TInt(), values.TUint(),
			values.TFloat(), values.TString(), values.TBytes(), values.TAny()}
		return scalars[r.Intn(len(scalars))]
	case 2:
		syms := make([]string, r.Intn(4))
		for i := range syms {
			syms[i] = randomString(r)
		}
		return values.TEnum(randomString(r), syms...)
	case 3:
		fields := make([]values.FieldType, r.Intn(4))
		for i := range fields {
			fields[i] = values.FT(randomString(r), randomDataType(r, depth-1))
		}
		return values.TRecord(randomString(r), fields...)
	default:
		return values.TSeq(randomDataType(r, depth-1))
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range codecs() {
		c := c
		t.Run(codecName(c), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				v := randomValue(r, 3)
				buf, err := c.AppendValue(nil, v)
				if err != nil {
					return false
				}
				got, off, err := c.ReadValue(buf, 0)
				return err == nil && off == len(buf) && got.Equal(v)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestAppendAtOffset(t *testing.T) {
	// Values must be readable mid-buffer.
	c := Canonical
	buf := []byte{0xde, 0xad}
	buf, err := c.AppendValue(buf, values.Str("x"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err = c.AppendValue(buf, values.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	v1, off, err := c.ReadValue(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v1.AsString(); s != "x" {
		t.Errorf("first value = %v", v1)
	}
	v2, off2, err := c.ReadValue(buf, off)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v2.AsInt(); i != 7 {
		t.Errorf("second value = %v", v2)
	}
	if off2 != len(buf) {
		t.Errorf("offset = %d, want %d", off2, len(buf))
	}
}

package wire

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/values"
)

// nestings builds, for each thing the depth bound counts, a value n levels
// deep: records, sequences and anys nest themselves, and an any's data
// type adds one level per non-nil type to the any's own.
func nestings() map[string]func(n int) values.Value {
	return map[string]func(n int) values.Value{
		"records": func(n int) values.Value {
			v := values.Int(1)
			for i := 0; i < n; i++ {
				v = values.Record(values.F("f", v))
			}
			return v
		},
		"sequences": func(n int) values.Value {
			v := values.Null()
			for i := 0; i < n; i++ {
				v = values.Seq(v)
			}
			return v
		},
		"anys": func(n int) values.Value {
			v := values.Str("x")
			for i := 0; i < n; i++ {
				v = values.Any(nil, v)
			}
			return v
		},
		"an any's data type": func(n int) values.Value {
			var t *values.DataType
			for i := 1; i < n; i++ {
				t = values.TSeq(t)
			}
			return values.Any(t, values.Null())
		},
	}
}

// TestDepthBound: a value nested exactly maxDepth deep travels; one level
// more is refused by the encoder, and by the decoder when a peer without
// the bound (the reference encoder) writes it anyway — as a value and as a
// frame's argument.
func TestDepthBound(t *testing.T) {
	for name, nest := range nestings() {
		for c, ref := range refCodecs() {
			at, over := nest(maxDepth), nest(maxDepth+1)
			b, err := c.AppendValue(nil, at)
			if err != nil {
				t.Fatalf("%s/%s: %d levels: %v", name, codecName(c), maxDepth, err)
			}
			if v, off, err := c.ReadValue(b, 0); err != nil || off != len(b) || !v.Equal(at) {
				t.Fatalf("%s/%s: %d levels read back as %v at %d: %v", name, codecName(c), maxDepth, v, off, err)
			}
			if _, err := c.AppendValue(nil, over); !errors.Is(err, ErrTooDeep) {
				t.Errorf("%s/%s: %d levels encoded: %v", name, codecName(c), maxDepth+1, err)
			}
			m := &Message{Kind: Call, Operation: "Op", Args: []values.Value{over}}
			if _, err := m.EncodeAppend(nil, c); !errors.Is(err, ErrTooDeep) {
				t.Errorf("%s/%s: frame of %d levels encoded: %v", name, codecName(c), maxDepth+1, err)
			}
			b, err = ref.AppendValue(nil, over)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.ReadValue(b, 0); !errors.Is(err, ErrTooDeep) {
				t.Errorf("%s/%s: %d levels decoded: %v", name, codecName(c), maxDepth+1, err)
			}
			m.Args = []values.Value{values.Int(1)}
			frame, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			frame = append(frame[:len(frame)-1-8], b...) // the one argument, replaced
			if _, err := Decode(frame); !errors.Is(err, ErrTooDeep) {
				t.Errorf("%s/%s: frame of %d levels decoded: %v", name, codecName(c), maxDepth+1, err)
			}
		}
	}
}

// deepFrame returns a Call frame whose one argument is levels nested
// one-element sequences around a null: five bytes a level.
func deepFrame(tb testing.TB, c Codec, levels int) []byte {
	tb.Helper()
	m := &Message{Kind: Call, BindingID: 1, Correlation: 1, Target: sampleTarget(), Operation: "Echo"}
	frame, err := m.EncodeAppend(make([]byte, 0, 128+5*levels), c)
	if err != nil {
		tb.Fatal(err)
	}
	frame = binary.BigEndian.AppendUint16(frame[:len(frame)-2], 1)
	level := []byte{byte(values.KindSeq), 0, 0, 0, 1} // canonical count 1
	if c == Native {
		level = []byte{byte(values.KindSeq), 1, 0, 0, 0}
	}
	for i := 0; i < levels; i++ {
		frame = append(frame, level...)
	}
	return append(frame, byte(values.KindNull))
}

// TestMillionLevelFrame: a 5 MB Call frame whose one argument is 1,000,000
// nested one-element sequences — well inside MaxLen and a transport's frame
// limit — was a fatal stack overflow in a decoder without a depth bound,
// killing the node that received it before any stage could check the
// sender. It is now refused like any bad frame.
func TestMillionLevelFrame(t *testing.T) {
	for _, c := range codecs() {
		frame := deepFrame(t, c, 1_000_000)
		if _, err := Decode(frame); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s: %d-byte frame decoded with %v", codecName(c), len(frame), err)
		}
	}
}

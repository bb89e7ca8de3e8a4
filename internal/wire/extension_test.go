package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// tracedSample returns a message carrying trace context and no payload,
// so the extension block sits at a known offset from the end of the
// frame: [count=1][kind][len u16][16-byte payload][argc u16].
func tracedSample() *Message {
	m := sampleMessage()
	m.Args = nil
	m.TraceID = 0xDEADBEEFCAFE
	m.SpanID = 0x123456789A
	return m
}

const extBlockLen = 1 + 3 + 16 // count, kind+len, trace payload

// TestTraceExtensionRoundTrip: under either codec a frame carries its
// trace context, flagged in the header, and a frame without one decodes
// without one and sets no flag.
func TestTraceExtensionRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		for _, traced := range []bool{true, false} {
			name, trace, span, flags := codecName(c)+"/traced", uint64(42), uint64(7), flagExtensions
			if !traced {
				name, trace, span, flags = codecName(c)+"/untraced", 0, 0, 0
			}
			t.Run(name, func(t *testing.T) {
				m := sampleMessage()
				m.TraceID, m.SpanID = trace, span
				frame, err := m.EncodeAppend(nil, c)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				if frame[5] != flags {
					t.Errorf("flags = %#x, want %#x", frame[5], flags)
				}
				got, err := Decode(frame)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if got.TraceID != trace || got.SpanID != span {
					t.Fatalf("trace context: trace=%d span=%d, want %d and %d", got.TraceID, got.SpanID, trace, span)
				}
			})
		}
	}
}

// TestUntracedFrameIsPreExtensionEncoding: a zero TraceID must produce
// the exact byte stream of the pre-extension format — flags byte zero, no
// extension block — so traced and untraced peers interoperate and old
// captures stay byte-comparable.
func TestUntracedFrameIsPreExtensionEncoding(t *testing.T) {
	traced := tracedSample()
	plain := tracedSample()
	plain.TraceID, plain.SpanID = 0, 0

	tf, err := traced.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plain.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	if pf[5] != 0 {
		t.Fatalf("untraced frame has flags %#x", pf[5])
	}
	if tf[5] != flagExtensions {
		t.Fatalf("traced frame has flags %#x", tf[5])
	}
	if len(tf) != len(pf)+extBlockLen {
		t.Fatalf("extension block is %d bytes, want %d", len(tf)-len(pf), extBlockLen)
	}
	// The traced frame is the untraced one with the extension block (and
	// the flags bit) spliced in just before the argument count.
	spliced := append([]byte(nil), tf[:len(tf)-2-extBlockLen]...)
	spliced = append(spliced, tf[len(tf)-2:]...)
	spliced[5] = 0
	if !bytes.Equal(spliced, pf) {
		t.Fatal("traced frame differs from untraced beyond the extension block")
	}
}

// TestUnknownExtensionKindSkipped: the decoder must step over extension
// kinds it does not recognise by their declared length, both when the
// unknown kind stands alone and when it precedes a trace extension.
func TestUnknownExtensionKindSkipped(t *testing.T) {
	frame, err := tracedSample().EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trace kind byte to an unknown kind: same length, so the
	// frame still parses, but the trace context is not recognised.
	mut := append([]byte(nil), frame...)
	mut[len(mut)-2-extBlockLen+1] = 0x7F
	m, err := Decode(mut)
	if err != nil {
		t.Fatalf("unknown kind rejected: %v", err)
	}
	if m.TraceID != 0 || m.SpanID != 0 {
		t.Fatalf("unknown kind decoded as trace: %d/%d", m.TraceID, m.SpanID)
	}

	// Two extensions: an unknown 4-byte one, then the real trace. The
	// decoder must skip the first and still recover the trace context.
	blockStart := len(frame) - 2 - extBlockLen
	two := append([]byte(nil), frame[:blockStart]...)
	two = append(two, 2)                       // extension count
	two = append(two, 0x7F, 0, 4, 1, 2, 3, 4)  // unknown kind, 4 bytes
	two = append(two, frame[blockStart+1:]...) // trace extension + argc
	m, err = Decode(two)
	if err != nil {
		t.Fatalf("two-extension frame rejected: %v", err)
	}
	if m.TraceID != 0xDEADBEEFCAFE || m.SpanID != 0x123456789A {
		t.Fatalf("trace context lost behind unknown extension: %d/%d",
			m.TraceID, m.SpanID)
	}
}

// TestExtensionMalformed exercises the failure modes of the extension
// block: truncation inside the block, a declared length running past the
// frame, and a length beyond the per-extension cap.
func TestExtensionMalformed(t *testing.T) {
	frame, err := tracedSample().EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	blockStart := len(frame) - 2 - extBlockLen
	lenOff := blockStart + 2 // big-endian u16 after count and kind bytes

	t.Run("truncated", func(t *testing.T) {
		// Every cut inside the extension block must fail cleanly.
		for cut := blockStart; cut < len(frame); cut++ {
			if m, err := Decode(frame[:cut]); err == nil {
				t.Fatalf("cut at %d/%d decoded: %+v", cut, len(frame), m)
			}
		}
	})
	t.Run("length-past-frame", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		binary.BigEndian.PutUint16(mut[lenOff:], 255)
		if _, err := Decode(mut); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("length-over-cap", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		binary.BigEndian.PutUint16(mut[lenOff:], maxExtensionLen+1)
		if _, err := Decode(mut); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("want ErrTooLarge, got %v", err)
		}
	})
	t.Run("flags-without-block", func(t *testing.T) {
		// Setting the extensions bit on an untraced frame makes the decoder
		// read the argument count as an extension block; whatever happens,
		// the frame must not decode cleanly into the original message.
		plain := tracedSample()
		plain.TraceID, plain.SpanID = 0, 0
		pf, err := plain.EncodeAppend(nil, Canonical)
		if err != nil {
			t.Fatal(err)
		}
		pf[5] |= flagExtensions
		if m, err := Decode(pf); err == nil && (m.TraceID != 0 || len(m.Args) != 0) {
			t.Fatalf("forged flags decoded trace context: %+v", m)
		}
	})
}

// TestPooledMessageClearsTraceContext: a message returned to the pool
// must not leak its trace identifiers into the next frame decoded.
func TestPooledMessageClearsTraceContext(t *testing.T) {
	m := GetMessage()
	m.TraceID, m.SpanID = 9, 9
	PutMessage(m)
	m2 := GetMessage()
	defer PutMessage(m2)
	if m2.TraceID != 0 || m2.SpanID != 0 {
		t.Fatalf("pooled message retained trace context: %d/%d", m2.TraceID, m2.SpanID)
	}
}

package wire

import (
	"testing"

	"repro/internal/values"
)

// fuzzSeeds returns well-formed frames in both codecs plus assorted
// payload shapes, so the fuzzer starts from inputs that reach deep into
// readValue and readDataType.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	msgs := []*Message{
		sampleMessage(),
		{Kind: OneWay, BindingID: 1, Operation: "Notify",
			Args: []values.Value{values.Str("x")}},
		{Kind: Reply, Correlation: 7, Termination: "OK", Args: []values.Value{
			values.Record(
				values.F("nested", values.Record(values.F("n", values.Int(-1)))),
				values.F("seq", values.Seq(values.Str("a"), values.Str("b"))),
			),
			values.Enum("sym"),
			values.BytesVal([]byte{0, 1, 2, 3}),
			values.Any(values.TSeq(values.TString()), values.Seq(values.Str("s"))),
			values.Float(3.5),
			values.Uint(9),
			values.Bool(true),
		}},
		{Kind: ErrReply, Termination: "Error",
			Args: []values.Value{values.Str("detail")}},
		// A frame of retired kind 4 (once a raw signal) still parses, so a
		// server can count it as a bad frame; and the unbatched one-way
		// flow element.
		{Kind: MsgKind(4), BindingID: 3, Operation: "connect",
			Args: []values.Value{values.Str("peer"), values.Bool(false)}},
		{Kind: FlowMsg, BindingID: 3, Operation: "video", Seq: 17,
			Args: []values.Value{values.BytesVal([]byte{9, 8, 7})}},
		// Traced frames: the extension block path must be in the corpus.
		{Kind: Call, BindingID: 9, Operation: "Get",
			TraceID: 0xa11c0ffee, SpanID: 0x1,
			Args: []values.Value{values.Int(1)}},
		{Kind: Reply, Correlation: 9, Termination: "OK",
			TraceID: ^uint64(0), SpanID: ^uint64(0)},
		// Streaming frames: the credit back-channel packs its numbers into
		// header fields (Correlation = stream id, Seq = element credit,
		// Epoch = byte credit) and must stay a bare header on the wire.
		{Kind: CreditGrant, BindingID: 4, Correlation: 0x51, Seq: 4096,
			Epoch: 1 << 20},
		{Kind: CreditGrant, Correlation: ^uint64(0), Seq: ^uint64(0),
			Epoch: ^uint64(0)},
		// FlowBatch in all three Termination shapes: open marker (no
		// elements), element batch mid-stream, end-of-stream marker.
		{Kind: FlowBatch, BindingID: 4, Operation: "ticks",
			Correlation: 0x51, Termination: StreamOpenMark},
		{Kind: FlowBatch, BindingID: 4, Operation: "ticks",
			Correlation: 0x51, Seq: 128, Args: []values.Value{
				values.Int(1), values.Int(2), values.Int(3)}},
		{Kind: FlowBatch, BindingID: 4, Operation: "ticks",
			Correlation: 0x51, Seq: 131, Termination: StreamEOSMark},
	}
	var seeds [][]byte
	for _, c := range codecs() {
		for _, m := range msgs {
			frame, err := m.EncodeAppend(nil, c)
			if err != nil {
				tb.Fatalf("seed encode: %v", err)
			}
			seeds = append(seeds, frame)
		}
	}
	return seeds
}

// FuzzDecode asserts the frame parser is total: any byte string either
// decodes into a message or returns an error — never a panic, over-read or
// runaway allocation. Run with `go test -fuzz=FuzzDecode ./internal/wire`.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x0D, 0x09, 0x01})
	// At the depth bound a frame decodes; one level past it is refused,
	// not a stack overflow.
	for _, c := range codecs() {
		f.Add(deepFrame(f, c, maxDepth))
		f.Add(deepFrame(f, c, maxDepth+1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// A frame that decodes must re-encode: the decoded message contains
		// only representable values.
		if _, err := m.EncodeAppend(nil, Canonical); err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
	})
}

// TestDecodeTruncatedAtEveryByte feeds every proper prefix of valid frames
// to Decode: each must fail cleanly (no panic) because the payload length
// checks run before any slicing.
func TestDecodeTruncatedAtEveryByte(t *testing.T) {
	for _, frame := range fuzzSeeds(t) {
		for i := 0; i < len(frame); i++ {
			if m, err := Decode(frame[:i]); err == nil {
				// Only a prefix that is itself a complete frame may decode;
				// with trailing-junk rejection there is none.
				t.Fatalf("prefix of %d/%d bytes decoded: %+v", i, len(frame), m)
			}
		}
	}
}

// TestDecodeCorruptedBytes flips each byte of a valid frame and checks the
// decoder stays total (either outcome is fine; it must not panic).
func TestDecodeCorruptedBytes(t *testing.T) {
	for _, frame := range fuzzSeeds(t) {
		for i := 0; i < len(frame); i++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0xFF
			_, _ = Decode(mut)
		}
	}
}

// TestStreamFrameCorruptions runs structural corruptions — targeted, not
// byte-flip-shaped — against a valid CreditGrant and FlowBatch frame.
// The streaming data plane decodes these kinds on the session hot path,
// so each named failure mode must come back as a clean error.
func TestStreamFrameCorruptions(t *testing.T) {
	grant := &Message{Kind: CreditGrant, BindingID: 4, Correlation: 0x51,
		Seq: 4096, Epoch: 1 << 20}
	batch := &Message{Kind: FlowBatch, BindingID: 4, Operation: "ticks",
		Correlation: 0x51, Seq: 128, Termination: StreamEOSMark,
		Args: []values.Value{values.Int(1), values.Int(2)}}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"bad magic", func(f []byte) []byte { f[0] ^= 0xFF; return f }},
		{"bad version", func(f []byte) []byte { f[2] = 0xEE; return f }},
		{"unknown codec", func(f []byte) []byte { f[3] = 0xEE; return f }},
		{"header only", func(f []byte) []byte { return f[:6] }},
		{"half frame", func(f []byte) []byte { return f[:len(f)/2] }},
		{"last byte gone", func(f []byte) []byte { return f[:len(f)-1] }},
		{"trailing junk", func(f []byte) []byte { return append(f, 0xAB) }},
	}
	for _, m := range []*Message{grant, batch} {
		for _, c := range codecs() {
			frame, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatalf("%v/%v: encode: %v", m.Kind, c.ID(), err)
			}
			for _, tc := range cases {
				mut := tc.mutate(append([]byte(nil), frame...))
				if _, err := Decode(mut); err == nil {
					t.Errorf("%v/%v/%s: corrupted frame decoded", m.Kind, c.ID(), tc.name)
				}
			}
		}
	}

	// A credit grant is a bare header, so its final two bytes are the u16
	// argument count. Forging a huge count with no payload behind it must
	// read as truncation — not an allocation or an over-read.
	for _, c := range codecs() {
		frame, err := grant.EncodeAppend(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		frame[len(frame)-2], frame[len(frame)-1] = 0xFF, 0xFF
		if _, err := Decode(frame); err == nil {
			t.Errorf("codec %v: forged arg count on a bare-header grant decoded", c.ID())
		}
	}
}

// TestStreamFramesRoundTrip pins the header-field packing of the
// streaming kinds across both codecs: a credit grant's numbers travel in
// Seq/Epoch/Correlation with no payload, and a FlowBatch keeps its flow
// name, FIFO position and termination marker.
func TestStreamFramesRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: CreditGrant, BindingID: 9, Correlation: 7, Seq: 100, Epoch: 65536},
		{Kind: FlowBatch, BindingID: 9, Operation: "quotes", Correlation: 7,
			Termination: StreamOpenMark},
		{Kind: FlowBatch, BindingID: 9, Operation: "quotes", Correlation: 7,
			Seq: 3, Args: []values.Value{values.Str("a"), values.Str("b")}},
		{Kind: FlowBatch, BindingID: 9, Operation: "quotes", Correlation: 7,
			Seq: 5, Termination: StreamEOSMark},
	}
	for _, m := range msgs {
		for _, c := range codecs() {
			frame, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatalf("%v/%v: encode: %v", m.Kind, c.ID(), err)
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("%v/%v: decode: %v", m.Kind, c.ID(), err)
			}
			if got.Kind != m.Kind || got.Correlation != m.Correlation ||
				got.Seq != m.Seq || got.Epoch != m.Epoch ||
				got.Operation != m.Operation || got.Termination != m.Termination ||
				len(got.Args) != len(m.Args) {
				t.Fatalf("%v/%v: round trip mismatch: %+v", m.Kind, c.ID(), got)
			}
		}
	}
}

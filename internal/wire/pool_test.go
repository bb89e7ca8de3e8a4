package wire

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/values"
)

func TestEncodeAppendPreservesPrefix(t *testing.T) {
	for _, c := range codecs() {
		t.Run(codecName(c), func(t *testing.T) {
			m := sampleMessage()
			want, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			buf := append([]byte(nil), prefix...)
			buf, err = m.EncodeAppend(buf, c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(buf, prefix) {
				t.Fatal("EncodeAppend clobbered existing bytes")
			}
			if !bytes.Equal(buf[len(prefix):], want) {
				t.Fatal("EncodeAppend after prefix differs from EncodeAppend(nil)")
			}
		})
	}
}

func TestSizeHintBoundsEncodedSize(t *testing.T) {
	msgs := []*Message{
		sampleMessage(),
		{Kind: OneWay, Operation: "Notify"},
		{Kind: Reply, Termination: "OK", Args: []values.Value{
			values.Record(
				values.F("a", values.Str("x")),
				values.F("b", values.Seq(values.Int(1), values.Int(2))),
			),
			values.BytesVal([]byte{9, 9, 9}),
			values.Any(values.TBool(), values.Bool(true)),
		}},
	}
	for _, c := range codecs() {
		for _, m := range msgs {
			enc, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			if hint := m.SizeHint(); len(enc) > hint {
				t.Errorf("%s %v: encoded %d bytes > SizeHint %d", codecName(c), m.Kind, len(enc), hint)
			}
		}
	}
}

// TestDecodeCopiesOutOfFrame is the pooling correctness edge: after Decode
// returns, the frame buffer may be scribbled over (recycled) without
// affecting any decoded payload.
func TestDecodeCopiesOutOfFrame(t *testing.T) {
	for _, c := range codecs() {
		t.Run(codecName(c), func(t *testing.T) {
			src := sampleMessage()
			src.Args = append(src.Args, values.BytesVal([]byte{0xAA, 0xBB}),
				values.Record(values.F("k", values.Str("deep"))))
			frame, err := src.EncodeAppend(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			for i := range frame {
				frame[i] = 0xFF
			}
			if m.Operation != "Withdraw" {
				t.Errorf("Operation corrupted by frame reuse: %q", m.Operation)
			}
			if !bytes.Equal(m.Auth, []byte{1, 2, 3}) {
				t.Errorf("Auth corrupted by frame reuse: %x", m.Auth)
			}
			if s, _ := m.Args[0].AsString(); s != "alice" {
				t.Errorf("string arg corrupted by frame reuse: %q", s)
			}
			if b, _ := m.Args[3].BytesView(); !bytes.Equal(b, []byte{0xAA, 0xBB}) {
				t.Errorf("bytes arg corrupted by frame reuse: %x", b)
			}
			if f, ok := m.Args[4].FieldByName("k"); !ok {
				t.Error("record field lost")
			} else if s, _ := f.AsString(); s != "deep" {
				t.Errorf("record field corrupted by frame reuse: %q", s)
			}
		})
	}
}

func TestInternBytesDoesNotAlias(t *testing.T) {
	buf := []byte("Deposit")
	s := internBytes(buf)
	if s != "Deposit" {
		t.Fatalf("internBytes = %q", s)
	}
	buf[0] = 'X'
	if s != "Deposit" {
		t.Fatalf("interned string aliases its input: %q", s)
	}
	// A second lookup with the same contents hits the table.
	if s2 := internBytes([]byte("Deposit")); s2 != "Deposit" {
		t.Fatalf("second intern = %q", s2)
	}
	// Oversized strings bypass the table but still decode correctly.
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	if got := internBytes(long); got != string(long) {
		t.Fatalf("oversized intern = %q", got)
	}
	if got := internBytes(nil); got != "" {
		t.Fatalf("empty intern = %q", got)
	}
}

func TestInternBytesConcurrent(t *testing.T) {
	names := []string{"Deposit", "Withdraw", "Balance", "OK", "Error", "NotToday"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 16)
			for i := 0; i < 1000; i++ {
				want := names[i%len(names)]
				buf = append(buf[:0], want...)
				if got := internBytes(buf); got != want {
					t.Errorf("internBytes(%q) = %q", want, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMessagePoolZeroes(t *testing.T) {
	m := GetMessage()
	m.Kind = Call
	m.Operation = "Echo"
	m.Args = []values.Value{values.Int(1)}
	PutMessage(m)
	PutMessage(nil) // must not panic
	got := GetMessage()
	// The pool may or may not hand back the same struct, but whatever it
	// hands back must be zero.
	if got.Kind != 0 || got.Operation != "" || got.Args != nil {
		t.Fatalf("pooled message not zeroed: %+v", got)
	}
	PutMessage(got)
}

// depositFrame encodes a call shaped like a teller's Deposit: customer,
// account and amount.
func depositFrame(t *testing.T) []byte {
	t.Helper()
	m := sampleMessage()
	m.Operation, m.Auth = "Deposit", nil
	m.Args = []values.Value{values.Str("alice"), values.Str("acct-1"), values.Int(1)}
	frame, err := m.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDecodeReusesRecycledArgs: a call decoded into a recycled Message
// reads its arguments into the message's own buffer, so with its names
// interned it allocates nothing at all.
func TestDecodeReusesRecycledArgs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so allocation counts vary")
	}
	frame := depositFrame(t)
	decode := func() {
		m, err := Decode(frame)
		if err != nil || len(m.Args) != 3 {
			t.Fatalf("Decode = %+v, %v", m, err)
		}
		PutMessage(m)
	}
	decode()
	if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Errorf("Decode into a recycled Message = %v allocs, want 0", allocs)
	}
}

// TestPutMessageBoundsArgBuffer: a recycled Message keeps its argument
// buffer, emptied, up to decode's reservation clamp and no further — a
// 1,000-argument frame's buffer is dropped, not pooled.
func TestPutMessageBoundsArgBuffer(t *testing.T) {
	for _, c := range []struct {
		argc int
		kept bool
	}{{3, true}, {maxArgReserve, true}, {1000, false}} {
		m := sampleMessage()
		m.Args = make([]values.Value, c.argc)
		for i := range m.Args {
			m.Args[i] = values.Int(int64(i))
		}
		frame, err := m.EncodeAppend(nil, Canonical)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decode(frame)
		if err != nil || len(d.Args) != c.argc {
			t.Fatalf("%d arguments: Decode = %v, %v", c.argc, len(d.Args), err)
		}
		PutMessage(d)
		if kept := d.argBuf != nil; kept != c.kept || len(d.argBuf) != 0 {
			t.Errorf("%d arguments: PutMessage kept len %d cap %d, want kept=%v", c.argc, len(d.argBuf), cap(d.argBuf), c.kept)
		}
	}
}

// TestRetainedArgsReadZero pins the borrow: a decoded message's Args die
// with it, so a slice kept past PutMessage reads zero Values, while a
// value copied out of it before survives intact.
func TestRetainedArgsReadZero(t *testing.T) {
	m, err := Decode(depositFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	kept, first := m.Args, m.Args[0]
	PutMessage(m)
	for i, v := range kept {
		if !reflect.DeepEqual(v, values.Value{}) {
			t.Errorf("Args[%d] = %v after PutMessage, want the zero Value", i, v)
		}
	}
	if s, _ := first.AsString(); s != "alice" {
		t.Errorf("value copied out before PutMessage = %v, want alice", first)
	}
}

func TestFramePoolRoundTrip(t *testing.T) {
	f := GetFrame(512)
	if len(f) != 0 || cap(f) < 512 {
		t.Fatalf("GetFrame: len=%d cap=%d", len(f), cap(f))
	}
	f = append(f, 1, 2, 3)
	PutFrame(f)
	// Reuse through the encode path: a full encode into a pooled frame
	// decodes back intact.
	m := sampleMessage()
	buf, err := m.EncodeAppend(GetFrame(m.SizeHint()), Canonical)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	PutFrame(buf)
	if dec.Operation != m.Operation || dec.BindingID != m.BindingID {
		t.Fatalf("round trip through pooled frame: %+v", dec)
	}
}

// TestDecodeErrorRecyclesMessage: a frame that fails to decode hands its
// pooled Message back, so a flood of corrupt frames costs no Message each.
// The frame is cut inside its argument section — in the count, where the
// error is the bare ErrTruncated, and in the last value, where building the
// error message is all that allocates besides the argument slice.
func TestDecodeErrorRecyclesMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so allocation counts vary")
	}
	m := sampleMessage()
	m.Auth = nil
	frame, err := m.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	empty := *m
	empty.Args = nil
	header, err := empty.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cut    int
		budget float64
	}{
		{"in the argument count", len(header) - 1, 0},
		{"in the last argument", len(frame) - 1, 3},
	} {
		bad := frame[:c.cut]
		allocs := testing.AllocsPerRun(200, func() {
			if got, err := Decode(bad); err == nil {
				t.Fatalf("decoded a truncated frame: %+v", got)
			}
		})
		if allocs > c.budget {
			t.Errorf("cut %s: %v allocs per failed Decode, budget %v", c.name, allocs, c.budget)
		}
	}
}

// TestValueSizeHintBoundsEncodedValue: the per-value bound the streaming
// layer debits credit by is never below a value's encoded size under
// either codec.
func TestValueSizeHintBoundsEncodedValue(t *testing.T) {
	for _, c := range codecs() {
		for _, v := range sampleValues() {
			enc, err := c.AppendValue(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			if hint := ValueSizeHint(v); len(enc) > hint {
				t.Errorf("%s %v: encoded %d bytes > ValueSizeHint %d", codecName(c), v, len(enc), hint)
			}
		}
	}
}

// TestPutFramesClearsBatch: recycling a batch clears its entries, so a
// reused batch slice cannot reach a buffer the pool has handed out again.
func TestPutFramesClearsBatch(t *testing.T) {
	batch := [][]byte{GetFrame(64), GetFrame(128), nil}
	batch[0] = append(batch[0], 1, 2, 3)
	PutFrames(batch)
	for i, f := range batch {
		if f != nil {
			t.Fatalf("batch[%d] still holds a recycled frame", i)
		}
	}
	PutFrames(nil)
}

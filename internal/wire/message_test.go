package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/naming"
	"repro/internal/values"
)

func sampleTarget() naming.InterfaceID {
	return naming.InterfaceID{
		Object: naming.ObjectID{
			Cluster: naming.ClusterID{
				Capsule: naming.CapsuleID{Node: "alpha", Seq: 1},
				Seq:     2,
			},
			Seq: 3,
		},
		Seq:   4,
		Nonce: 0xfeedface,
	}
}

func sampleMessage() *Message {
	return &Message{
		Kind:        Call,
		BindingID:   77,
		Seq:         12,
		Correlation: 99,
		Epoch:       3,
		Target:      sampleTarget(),
		Operation:   "Withdraw",
		Auth:        []byte{1, 2, 3},
		Args: []values.Value{
			values.Str("alice"),
			values.Str("acct-1"),
			values.Int(400),
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		t.Run(codecName(c), func(t *testing.T) {
			m := sampleMessage()
			buf, err := m.EncodeAppend(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != m.Kind || got.BindingID != m.BindingID || got.Seq != m.Seq ||
				got.Correlation != m.Correlation || got.Epoch != m.Epoch ||
				got.Target != m.Target || got.Operation != m.Operation ||
				got.Termination != m.Termination {
				t.Errorf("header mismatch: got %+v, want %+v", got, m)
			}
			if string(got.Auth) != string(m.Auth) {
				t.Errorf("auth mismatch: %v vs %v", got.Auth, m.Auth)
			}
			if len(got.Args) != len(m.Args) {
				t.Fatalf("args len %d, want %d", len(got.Args), len(m.Args))
			}
			for i := range m.Args {
				if !got.Args[i].Equal(m.Args[i]) {
					t.Errorf("arg %d: got %v, want %v", i, got.Args[i], m.Args[i])
				}
			}
		})
	}
}

func TestMessageRoundTripVariants(t *testing.T) {
	variants := []*Message{
		{Kind: Reply, Termination: "OK", Correlation: 1, Args: []values.Value{values.Int(500)}},
		{Kind: OneWay, Operation: "Notify"},
		{Kind: ErrReply, Termination: "ERR_NO_SUCH_OPERATION", Correlation: 9},
		{Kind: FlowMsg, Operation: "video", Args: []values.Value{values.BytesVal([]byte{9})}},
		{Kind: MsgKind(4), Operation: "connect"},
	}
	for _, m := range variants {
		buf, err := m.EncodeAppend(nil, Canonical)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.Termination != m.Termination || got.Operation != m.Operation {
			t.Errorf("round trip %v: got %+v", m.Kind, got)
		}
		if got.Auth != nil {
			t.Errorf("%v: empty auth should decode to nil", m.Kind)
		}
	}
}

func TestDecodeRejectsBadFrames(t *testing.T) {
	m := sampleMessage()
	buf, err := m.EncodeAppend(nil, Native)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short", func(t *testing.T) {
		if _, err := Decode(buf[:3]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte{}, buf...)
		bad[0] ^= 0xff
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, buf...)
		bad[2] = 99
		if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("codec", func(t *testing.T) {
		bad := append([]byte{}, buf...)
		bad[3] = 99
		if _, err := Decode(bad); !errors.Is(err, ErrBadTag) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		bad := append(append([]byte{}, buf...), 0xee)
		if _, err := Decode(bad); err == nil {
			t.Error("trailing bytes should fail")
		}
	})
	t.Run("truncated-everywhere", func(t *testing.T) {
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Decode(buf[:cut]); err == nil {
				t.Fatalf("decode of %d-byte prefix should fail", cut)
			}
		}
	})
}

func TestMsgKindString(t *testing.T) {
	// The kind is the frame's fourth byte: a retired kind leaves a hole, so
	// every remaining frame keeps its encoding.
	if Call != 1 || Reply != 2 || OneWay != 3 || FlowMsg != 5 || ErrReply != 6 || CreditGrant != 9 || FlowBatch != 10 {
		t.Fatalf("Call, Reply, OneWay, FlowMsg, ErrReply, CreditGrant, FlowBatch = %d %d %d %d %d %d %d; want 1 2 3 5 6 9 10",
			Call, Reply, OneWay, FlowMsg, ErrReply, CreditGrant, FlowBatch)
	}
	for k, want := range map[MsgKind]string{
		Call: "call", Reply: "reply", OneWay: "oneway",
		FlowMsg: "flow", ErrReply: "error",
		CreditGrant: "creditgrant", FlowBatch: "flowbatch",
		MsgKind(4): "msgkind(4)", MsgKind(7): "msgkind(7)", MsgKind(8): "msgkind(8)",
		MsgKind(99): "msgkind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestHeaderAlwaysCanonical(t *testing.T) {
	// The same message encoded with either codec must carry an identical
	// header region (bytes before the payload): heterogeneous peers parse
	// headers before knowing the payload codec.
	m := &Message{Kind: Call, Target: sampleTarget(), Operation: "Op"}
	a, err := m.EncodeAppend(nil, Native)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EncodeAppend(nil, Canonical)
	if err != nil {
		t.Fatal(err)
	}
	// Only byte 3 (codec id) may differ.
	if len(a) != len(b) {
		t.Fatalf("frame lengths differ with no args: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if i == 3 {
			continue
		}
		if a[i] != b[i] {
			t.Fatalf("header byte %d differs between codecs", i)
		}
	}
}

// TestFramesByteIdentical pins the bytes of one traced Deposit Call and its
// Reply under each codec, as the two hand-written encoders wrote them: the
// transfer syntax is a contract with every peer already deployed, so a
// change to how it is written may not change what it writes. Each frame is
// the header (magic, version, codec, kind, flags; binding, seq,
// correlation, epoch; target; operation, termination and auth, each
// length-prefixed), the Call's trace extension, then the argument count
// and the arguments in the codec's representation.
func TestFramesByteIdentical(t *testing.T) {
	call := &Message{Kind: Call, BindingID: 0x1d, Seq: 7, Correlation: 42, Epoch: 1,
		Target: sampleTarget(), Operation: "Deposit",
		TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210,
		Args: []values.Value{values.Str("alice"), values.Str("acct-1"), values.Int(100)}}
	reply := &Message{Kind: Reply, BindingID: 0x1d, Correlation: 42, Target: sampleTarget(),
		Operation: "Deposit", Termination: "OK", Args: []values.Value{values.Int(10100)}}
	const (
		target  = "00000005616c7068610000000100000002000000030000000400000000feedface"
		binding = "000000000000001d"
		corr    = "000000000000002a"
	)
	for _, tc := range []struct {
		name  string
		c     Codec
		m     *Message
		frame string
	}{
		{"native call", Native, call, "0d9001020101" + binding + "0000000000000007" + corr + "0000000000000001" + target +
			"000000074465706f736974" + "00000000" + "00000000" +
			"01" + "010010" + "0123456789abcdef" + "fedcba9876543210" +
			"0003" + "0505000000616c696365" + "0506000000616363742d31" + "026400000000000000"},
		{"native reply", Native, reply, "0d9001020200" + binding + "0000000000000000" + corr + "0000000000000000" + target +
			"000000074465706f736974" + "000000024f4b" + "00000000" +
			"0001" + "027427000000000000"},
		{"canonical call", Canonical, call, "0d9001010101" + binding + "0000000000000007" + corr + "0000000000000001" + target +
			"000000074465706f736974" + "00000000" + "00000000" +
			"01" + "010010" + "0123456789abcdef" + "fedcba9876543210" +
			"0003" + "0500000005616c696365000000" + "0500000006616363742d310000" + "020000000000000064"},
		{"canonical reply", Canonical, reply, "0d9001010200" + binding + "0000000000000000" + corr + "0000000000000000" + target +
			"000000074465706f736974" + "000000024f4b" + "00000000" +
			"0001" + "020000000000002774"},
	} {
		got, err := tc.m.EncodeAppend(nil, tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hex.EncodeToString(got) != tc.frame {
			t.Errorf("%s:\n got %x\nwant %s", tc.name, got, tc.frame)
		}
		back, err := Decode(got)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		again, err := back.EncodeAppend(nil, tc.c)
		if err != nil || !bytes.Equal(again, got) {
			t.Errorf("%s: decoded frame re-encodes to %x, %v", tc.name, again, err)
		}
	}
}

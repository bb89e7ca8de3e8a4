package wire

import (
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
		{Kind: Probe},
		{Kind: ProbeAck},
		{Kind: FlowMsg, Operation: "video", Args: []values.Value{values.BytesVal([]byte{9})}},
		{Kind: SignalMsg, Operation: "connect"},
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
	for k, want := range map[MsgKind]string{
		Call: "call", Reply: "reply", OneWay: "oneway", SignalMsg: "signal",
		FlowMsg: "flow", ErrReply: "error", Probe: "probe", ProbeAck: "probeack",
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

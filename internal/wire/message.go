package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/naming"
	"repro/internal/values"
)

// Framing error sentinels.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
)

const (
	frameMagic   uint16 = 0x0D90 // "ODP"
	frameVersion byte   = 1
)

// Header flag bits. flagExtensions marks a frame carrying an extension
// block between the Auth field and the argument count. Extensions are
// typed and length-prefixed so a decoder skips the kinds it does not
// know: a traced peer and an untraced peer interoperate, and future
// extension kinds pass through today's decoder untouched.
const (
	flagExtensions byte = 1 << 0
)

// Extension kinds.
const (
	extTrace byte = 1 // 16 bytes: trace id, span id (big endian)
)

// maxExtensionLen bounds one extension payload so a forged length cannot
// reserve unbounded memory; extensions are small metadata, not payload.
const maxExtensionLen = 1024

// MsgKind classifies a frame.
type MsgKind uint8

// The frame kinds exchanged by protocol objects. Call/Reply carry
// interrogations, OneWay carries announcements, SignalMsg carries raw
// signal-interface primitives, FlowMsg carries stream elements, ErrReply
// carries infrastructure failures (as opposed to application terminations),
// and Probe/ProbeAck support liveness checks.
const (
	Call MsgKind = iota + 1
	Reply
	OneWay
	SignalMsg
	FlowMsg
	ErrReply
	Probe
	ProbeAck
	// CreditGrant is the streaming back-channel: the consumer end grants
	// transmission credit to the producer of one flow stream. It reuses
	// existing header fields instead of a payload so a grant costs a bare
	// header: Correlation carries the stream id, Seq the cumulative element
	// credit and Epoch the cumulative byte credit (both monotone totals
	// since stream open, so a lost or reordered grant is subsumed by the
	// next one). Args is empty.
	CreditGrant
	// FlowBatch carries a batch of stream elements for one flow, plus the
	// stream's open/close markers. Operation names the flow, Correlation
	// carries the stream id, Seq the cumulative element count before this
	// batch (the per-flow FIFO position), and Args the elements.
	// Termination distinguishes the markers: StreamOpenMark opens the
	// stream (no elements; the consumer answers with the initial
	// CreditGrant), StreamEOSMark closes it, and "" is an ordinary
	// element batch.
	FlowBatch
)

// FlowBatch termination markers (see the FlowBatch kind).
const (
	StreamOpenMark = "STREAM_OPEN"
	StreamEOSMark  = "STREAM_EOS"
)

// String returns the name of the message kind.
func (k MsgKind) String() string {
	switch k {
	case Call:
		return "call"
	case Reply:
		return "reply"
	case OneWay:
		return "oneway"
	case SignalMsg:
		return "signal"
	case FlowMsg:
		return "flow"
	case ErrReply:
		return "error"
	case Probe:
		return "probe"
	case ProbeAck:
		return "probeack"
	case CreditGrant:
		return "creditgrant"
	case FlowBatch:
		return "flowbatch"
	}
	return fmt.Sprintf("msgkind(%d)", int(k))
}

// Message is one frame on a channel. The header travels in the canonical
// representation regardless of codec; only the argument payload uses the
// negotiated codec (heterogeneous peers must at least agree on headers).
// The (BindingID, Correlation) pair is the session demux key: many
// bindings multiplex one transport session (package channel's session
// layer), and since correlations are allocated per binding, the pair
// uniquely routes every Reply/ErrReply/ProbeAck on a shared connection
// without any extra wire fields.
type Message struct {
	Kind        MsgKind
	BindingID   uint64             // identifies the binding within the channel (session demux, replay guard)
	Seq         uint64             // binder sequence number (replay defence)
	Correlation uint64             // matches a Reply/ErrReply to its Call; per-binding allocation
	Epoch       uint64             // sender's view of the target's relocation epoch
	Target      naming.InterfaceID // destination interface
	Operation   string             // operation, signal or flow name
	Termination string             // termination name (Reply) or error code (ErrReply)
	Auth        []byte             // security credentials, if any
	Args        []values.Value     // payload

	// TraceID/SpanID carry the management trace context. When TraceID is
	// nonzero the frame gains a trace extension (flagExtensions); a zero
	// TraceID encodes the exact pre-extension byte stream, so untraced
	// frames are bit-identical to those of older encoders. Decoders that
	// predate extensions reject extended frames outright (version policy);
	// current decoders skip extension kinds they do not understand.
	TraceID uint64
	SpanID  uint64

	// Codec records the payload codec of a decoded frame. It is set by
	// Decode and ignored by Encode (which takes the codec explicitly);
	// servers use it to mirror the client's representation in replies.
	Codec CodecID
}

// SizeHint returns a conservative estimate of the encoded frame size — an
// upper bound for either codec — so encode buffers are right-sized on
// first use instead of growing through several reallocations.
func (m *Message) SizeHint() int {
	n := 96 + len(m.Target.Object.Cluster.Capsule.Node) +
		len(m.Operation) + len(m.Termination) + len(m.Auth)
	if m.TraceID != 0 {
		n += 1 + 3 + 16 // extension block: count, trace kind+len, payload
	}
	for _, a := range m.Args {
		n += valueSizeHint(a)
	}
	return n
}

// EncodeAppend serialises the message using the given codec for the
// payload, appending the frame to dst (which may be nil, or a pooled
// buffer from GetFrame) and returning the extended slice.
func (m *Message) EncodeAppend(dst []byte, codec Codec) ([]byte, error) {
	var flags byte
	if m.TraceID != 0 {
		flags |= flagExtensions
	}
	dst = binary.BigEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, frameVersion, byte(codec.ID()), byte(m.Kind), flags)
	dst = binary.BigEndian.AppendUint64(dst, m.BindingID)
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = binary.BigEndian.AppendUint64(dst, m.Correlation)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = appendHdrString(dst, string(m.Target.Object.Cluster.Capsule.Node))
	dst = binary.BigEndian.AppendUint32(dst, m.Target.Object.Cluster.Capsule.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.Target.Object.Cluster.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.Target.Object.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.Target.Seq)
	dst = binary.BigEndian.AppendUint64(dst, m.Target.Nonce)
	dst = appendHdrString(dst, m.Operation)
	dst = appendHdrString(dst, m.Termination)
	dst = appendHdrBytes(dst, m.Auth)
	if flags&flagExtensions != 0 {
		dst = append(dst, 1)               // extension count
		dst = append(dst, extTrace, 0, 16) // kind, u16 length
		dst = binary.BigEndian.AppendUint64(dst, m.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, m.SpanID)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Args)))
	var err error
	for _, a := range m.Args {
		if dst, err = codec.AppendValue(dst, a); err != nil {
			return nil, fmt.Errorf("wire: encoding argument: %w", err)
		}
	}
	return dst, nil
}

// Decode parses a frame produced by Encode, selecting the payload codec
// from the header. Every string and byte payload is copied out of data, so
// the caller may recycle the frame (PutFrame) as soon as Decode returns.
// The Message itself comes from a pool; a caller that remains its last
// holder may hand it back with PutMessage.
func Decode(data []byte) (*Message, error) {
	if len(data) < 6 {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != frameMagic {
		return nil, ErrBadMagic
	}
	if data[2] != frameVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[2])
	}
	codec, err := ByID(CodecID(data[3]))
	if err != nil {
		return nil, err
	}
	m := GetMessage()
	m.Kind = MsgKind(data[4])
	m.Codec = codec.ID()
	if err := m.decodeBody(data, codec); err != nil {
		PutMessage(m) // a corrupt frame must cost no more than a good one
		return nil, err
	}
	return m, nil
}

// decodeBody parses everything after the fixed six-byte prefix into m.
func (m *Message) decodeBody(data []byte, codec Codec) (err error) {
	flags := data[5]
	off := 6

	if m.BindingID, off, err = readU64(data, off, binary.BigEndian); err != nil {
		return err
	}
	if m.Seq, off, err = readU64(data, off, binary.BigEndian); err != nil {
		return err
	}
	if m.Correlation, off, err = readU64(data, off, binary.BigEndian); err != nil {
		return err
	}
	if m.Epoch, off, err = readU64(data, off, binary.BigEndian); err != nil {
		return err
	}
	var nodeB []byte
	if nodeB, off, err = readHdrBytes(data, off); err != nil {
		return err
	}
	m.Target.Object.Cluster.Capsule.Node = naming.NodeID(internBytes(nodeB))
	var u32 uint32
	if u32, off, err = readU32(data, off, binary.BigEndian); err != nil {
		return err
	}
	m.Target.Object.Cluster.Capsule.Seq = u32
	if u32, off, err = readU32(data, off, binary.BigEndian); err != nil {
		return err
	}
	m.Target.Object.Cluster.Seq = u32
	if u32, off, err = readU32(data, off, binary.BigEndian); err != nil {
		return err
	}
	m.Target.Object.Seq = u32
	if u32, off, err = readU32(data, off, binary.BigEndian); err != nil {
		return err
	}
	m.Target.Seq = u32
	if m.Target.Nonce, off, err = readU64(data, off, binary.BigEndian); err != nil {
		return err
	}
	var opB, termB, authB []byte
	if opB, off, err = readHdrBytes(data, off); err != nil {
		return err
	}
	m.Operation = internBytes(opB)
	if termB, off, err = readHdrBytes(data, off); err != nil {
		return err
	}
	m.Termination = internBytes(termB)
	if authB, off, err = readHdrBytes(data, off); err != nil {
		return err
	}
	if len(authB) > 0 {
		m.Auth = make([]byte, len(authB))
		copy(m.Auth, authB)
	}
	if flags&flagExtensions != 0 {
		if off, err = m.readExtensions(data, off); err != nil {
			return err
		}
	}
	if off+2 > len(data) {
		return ErrTruncated
	}
	argc := binary.BigEndian.Uint16(data[off:])
	off += 2
	if argc > 0 {
		reserve := int(argc)
		if reserve > 64 {
			reserve = 64 // a forged count must not reserve huge capacity
		}
		m.Args = make([]values.Value, 0, reserve)
		for i := 0; i < int(argc); i++ {
			var v values.Value
			if v, off, err = codec.ReadValue(data, off); err != nil {
				return fmt.Errorf("wire: decoding argument %d: %w", i, err)
			}
			m.Args = append(m.Args, v)
		}
	}
	if off != len(data) {
		return fmt.Errorf("wire: %d trailing bytes", len(data)-off)
	}
	return nil
}

// readExtensions parses the extension block: a count byte, then per
// extension a kind byte, a big-endian u16 length and that many payload
// bytes. Unknown kinds are skipped over by their declared length — the
// interop rule that lets a peer introduce new extensions without this
// decoder rejecting its frames. A declared length past the end of the
// frame is truncation, as everywhere else in the header.
func (m *Message) readExtensions(data []byte, off int) (int, error) {
	if off >= len(data) {
		return off, ErrTruncated
	}
	count := int(data[off])
	off++
	for i := 0; i < count; i++ {
		if off+3 > len(data) {
			return off, ErrTruncated
		}
		kind := data[off]
		n := int(binary.BigEndian.Uint16(data[off+1:]))
		off += 3
		if n > maxExtensionLen {
			return off, fmt.Errorf("%w: extension %d bytes", ErrTooLarge, n)
		}
		if off+n > len(data) {
			return off, ErrTruncated
		}
		if kind == extTrace && n == 16 {
			m.TraceID = binary.BigEndian.Uint64(data[off:])
			m.SpanID = binary.BigEndian.Uint64(data[off+8:])
		}
		off += n
	}
	return off, nil
}

// ValueSizeHint exposes the per-value size bound to the streaming layer:
// byte-denominated credit windows debit and grant the same deterministic
// measure on both ends of a flow stream, so producer and consumer
// accounting can never drift even though neither sees the other's
// encoded frames.
func ValueSizeHint(v values.Value) int { return valueSizeHint(v) }

// valueSizeHint returns an upper bound on the encoded size of v under
// either codec (the canonical codec's 4-byte padding and wide booleans are
// what make the bound conservative for the native one).
func valueSizeHint(v values.Value) int {
	const strOverhead = 1 + 4 + 3 // tag + length + worst-case padding
	switch v.Kind() {
	case values.KindNull:
		return 1
	case values.KindBool:
		return 5
	case values.KindInt, values.KindUint, values.KindFloat:
		return 9
	case values.KindString:
		s, _ := v.AsString()
		return strOverhead + len(s)
	case values.KindEnum:
		s, _ := v.AsEnum()
		return strOverhead + len(s)
	case values.KindBytes:
		b, _ := v.BytesView()
		return strOverhead + len(b)
	case values.KindRecord:
		n := 5
		for i := 0; i < v.NumFields(); i++ {
			f := v.FieldAt(i)
			n += 4 + 3 + len(f.Name) + valueSizeHint(f.Value)
		}
		return n
	case values.KindSeq:
		n := 5
		for i := 0; i < v.Len(); i++ {
			n += valueSizeHint(v.ElemAt(i))
		}
		return n
	case values.KindAny:
		dt, inner, _ := v.AsAny()
		return 1 + dataTypeSizeHint(dt) + valueSizeHint(inner)
	}
	return 16
}

func dataTypeSizeHint(t *values.DataType) int {
	if t == nil {
		return 1
	}
	n := 1 + 4 + 3 + len(t.Name)
	switch t.Kind {
	case values.KindEnum:
		n += 4
		for _, s := range t.Symbols {
			n += 4 + 3 + len(s)
		}
	case values.KindRecord:
		n += 4
		for _, f := range t.Fields {
			n += 4 + 3 + len(f.Name) + dataTypeSizeHint(f.Type)
		}
	case values.KindSeq:
		n += dataTypeSizeHint(t.Elem)
	}
	return n
}

func appendHdrBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendHdrString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readHdrBytes(data []byte, off int) ([]byte, int, error) {
	n, off2, err := readU32(data, off, binary.BigEndian)
	if err != nil {
		return nil, off, err
	}
	if n > MaxLen {
		return nil, off, fmt.Errorf("%w: header field %d bytes", ErrTooLarge, n)
	}
	end := off2 + int(n)
	if end > len(data) {
		return nil, off2, ErrTruncated
	}
	return data[off2:end], end, nil
}

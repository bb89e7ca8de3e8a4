package wire

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/values"
)

// Frame buffers are the dominant allocation of the invocation hot path:
// every Call, Reply and OneWay serialises into a fresh []byte. The pool
// below (backed by the size-classed free lists in internal/bufpool, which
// the transports share) lets channel ends reuse those buffers across
// invocations.
//
// Ownership protocol: GetFrame hands the caller exclusive use of the
// buffer; PutFrame ends it. A frame may be recycled once no decoded view
// of it can escape — Decode copies out every string and byte payload
// precisely so that received frames can be recycled immediately after
// decoding. Whoever must remember a frame's bytes (the replay guard does)
// copies them; nothing retains a frame past its PutFrame.
//
// Where a payload is copied to depends on the frame. A Call's, a Reply's
// or a OneWay's bytes argument, which servants and stores keep, gets an
// allocation of its own. A FlowBatch's stream elements, which a consumer
// mostly reads once and drops, are carved: each bytes payload of at most
// 4 KiB is copied into a region of a shared 32 KiB chunk (carveBytes), and
// its value is a string over that region. The region is the value's for
// good: no one writes it again, and the value may be kept like any other.
// What keeping it costs is its chunk: an element the consumer keeps pins
// the one 32 KiB chunk it was carved from, and never more.
//
// A decoded Message is owned the same way: Decode hands it out, PutMessage
// ends it. Its Args slice is the message's own argument buffer, borrowed
// by whoever reads the message and valid until its PutMessage; the values
// in it own their payloads and may be kept. Whoever must keep the slice
// copies it with CloneValues: the client keeping a call's results does,
// and a reply of a few flat values is carved from a shared chunk of 80
// values, which a kept result pins.
//
// The buffer is lent past its arguments too: Decode leaves spare capacity
// behind them, and a servant may append its results to Args[len(Args):].
// Those results live until the same PutMessage, which the server calls
// only once the reply is encoded. The tail belongs to one callee at a
// time: whoever hands one Args slice to several callees at once (a
// replica group's fan-out) clips it to its length first, so each callee's
// append allocates a slice of its own.

// GetFrame returns a pooled zero-length buffer with capacity at least
// sizeHint, for use with Message.EncodeAppend.
func GetFrame(sizeHint int) []byte { return bufpool.Get(sizeHint) }

// PutFrame recycles a frame buffer obtained from GetFrame or received from
// a transport. The caller must not touch the buffer afterwards.
func PutFrame(b []byte) { bufpool.Put(b) }

// PutFrames recycles a batch of frame buffers at once and clears the slice
// entries so a reused batch slice cannot pin recycled buffers. A channel
// end's send queue uses it after a vectored write: the frames were appended
// into the shared batch without copying, so returning them here is the
// single ownership hand-back for the whole write.
func PutFrames(frames [][]byte) {
	for i, f := range frames {
		bufpool.Put(f)
		frames[i] = nil
	}
}

// ---------------------------------------------------------------------------
// decode scratch: records and sequences are parsed into pooled scratch
// slices, then copied out into an exactly-sized slice handed to the owned
// values constructors. This costs one allocation per composite value
// (instead of two: grow-while-parsing plus the constructor's defensive
// copy) and keeps a hostile length prefix from reserving huge capacity
// up front.

// messagePool recycles Message structs themselves, with their argument
// buffers. Decode draws from it, so a channel end that knows a message is
// finished (for example a server that has answered a call) can return the
// struct with PutMessage and make the next Decode allocation-free, its
// arguments included.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a zeroed Message from the pool.
func GetMessage() *Message { return messagePool.Get().(*Message) }

// PutMessage recycles a Message. The caller must be the last holder of the
// pointer, and the Args of a decoded message die with it: PutMessage
// zeroes the argument buffer they point into, to its full capacity, so a
// slice kept past it reads zero Values and no result a servant appended
// past the arguments stays reachable from the pool (the values it held
// live on wherever they were copied). Args set by a sender are never
// pooled, only the buffer Decode filled; a buffer grown past decode's
// reservation clamp is dropped, so one huge frame does not pin its
// arguments' capacity in the pool.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	m.reset()
	messagePool.Put(m)
}

// reset zeroes m as PutMessage describes, keeping its argument buffer.
func (m *Message) reset() {
	buf := m.argBuf
	clear(buf[:cap(buf)])
	*m = Message{}
	if cap(buf) <= maxArgReserve {
		m.argBuf = buf[:0]
	}
}

var fieldScratchPool = sync.Pool{
	New: func() any { s := make([]values.Field, 0, 16); return &s },
}

var valueScratchPool = sync.Pool{
	New: func() any { s := make([]values.Value, 0, 16); return &s },
}

func getFieldScratch() *[]values.Field { return fieldScratchPool.Get().(*[]values.Field) }

func putFieldScratch(p *[]values.Field, used []values.Field) {
	clear(used) // drop references so pooled scratch does not pin decoded data
	*p = used[:0]
	fieldScratchPool.Put(p)
}

func getValueScratch() *[]values.Value { return valueScratchPool.Get().(*[]values.Value) }

func putValueScratch(p *[]values.Value, used []values.Value) {
	clear(used)
	*p = used[:0]
	valueScratchPool.Put(p)
}

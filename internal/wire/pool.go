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
// A decoded Message is owned the same way: Decode hands it out, PutMessage
// ends it. Its Args slice is the message's own argument buffer, borrowed
// by whoever reads the message and valid until its PutMessage; the values
// in it own their payloads and may be kept. Whoever must keep the slice
// (the client keeping a call's results) copies it.

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
// zeroes the argument buffer they point into, so a slice kept past it
// reads zero Values (the values it held live on wherever they were
// copied). Args set by a sender are never pooled, only the buffer Decode
// filled; a buffer grown past decode's reservation clamp is dropped, so
// one huge frame does not pin its arguments' capacity in the pool.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	buf := m.argBuf
	clear(buf)
	*m = Message{}
	if cap(buf) <= maxArgReserve {
		m.argBuf = buf[:0]
	}
	messagePool.Put(m)
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

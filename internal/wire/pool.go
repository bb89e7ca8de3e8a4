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

// GetFrame returns a pooled zero-length buffer with capacity at least
// sizeHint, for use with Message.EncodeAppend.
func GetFrame(sizeHint int) []byte { return bufpool.Get(sizeHint) }

// PutFrame recycles a frame buffer obtained from GetFrame or received from
// a transport. The caller must not touch the buffer afterwards.
func PutFrame(b []byte) { bufpool.Put(b) }

// PutFrames recycles a batch of frame buffers at once and clears the slice
// entries so a reused batch slice cannot pin recycled buffers. The batched
// session sender uses it after a vectored write: the frames were appended
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

// messagePool recycles Message structs themselves. Decode draws from it,
// so a channel end that knows a message is finished (for example a server
// that has answered a call) can return the struct with PutMessage and make
// the next Decode allocation-free. Recycling only zeroes the struct: any
// slices it referenced (Args, Auth) keep whatever owners they escaped to.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a zeroed Message from the pool.
func GetMessage() *Message { return messagePool.Get().(*Message) }

// PutMessage recycles a Message. The caller must be the last holder of the
// pointer: a Message handed to application code that may retain it (for
// example a reply delivered to an Invoke caller) must not be put back.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
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

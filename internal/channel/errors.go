// Package channel implements the RM-ODP engineering channel of Figure 4:
// the composable pipeline of stubs, binders and protocol objects that
// connects basic engineering objects across nodes.
//
//	Client Object                           Server Object
//	     |                                        ^
//	   [stub stages]   — application-aware —  [stub stages]
//	   [binder]        — replay, relocation — [binder]
//	   [protocol obj]  — frames over conn —   [protocol obj]
//	          \________ communications ________/
//
// The client end is a Binding (obtained with Bind); the server end is a
// Server hosting servants for engineering object interfaces. Stubs and
// binders are Stage values configured per channel; which stages appear is
// decided by the transparency configurator (package transparency) from the
// binding's environment contract.
package channel

import (
	"errors"
	"fmt"
)

// Client-side channel error sentinels.
var (
	ErrClosed       = errors.New("channel: binding closed")
	ErrDisconnected = errors.New("channel: connection lost")
	ErrBadReply     = errors.New("channel: malformed reply")
	ErrTypeCheck    = errors.New("channel: interaction violates interface type")
	// ErrAttemptTimeout marks one attempt of an interrogation exceeding its
	// per-attempt bound while the call as a whole still had budget left, so
	// the retry loop may try again. The wrapped error carries the endpoint
	// and attempt index; match with errors.Is.
	ErrAttemptTimeout = errors.New("channel: attempt timed out")
)

// errDetached is SessionManager.session's answer when no binding is
// attached to the endpoint any more: the requester closed, or a sibling
// call relocated it, after it read the endpoint. Binding.session re-reads
// its endpoint and asks again; only a closed binding or manager is
// ErrClosed.
var errDetached = errors.New("channel: endpoint detached")

// ErrSessionClosing reports that a frame was handed to a session whose send
// path had already begun shutting down, so the frame was never written.
// Before the batched sender existed this window was a silent drop: Send on
// a mid-close connection could return nil for a frame that would never
// depart. The sentinel wraps ErrDisconnected so every existing
// errors.Is(err, ErrDisconnected) retry/relocation policy treats it as the
// retriable connection loss it is, while errors.Is(err, ErrSessionClosing)
// still distinguishes the local-race case from a broken wire.
var ErrSessionClosing = fmt.Errorf("%w: session closing, frame not sent", ErrDisconnected)

// ErrStreamClosed reports that a flow stream's session died (or the stream
// was torn down) with the interaction unsent. It wraps ErrDisconnected so
// the retry/relocation machinery classifies it as the connection loss it
// is, while errors.Is(err, ErrStreamClosed) lets stream producers
// distinguish "this stream is gone, reopen it" from transient send errors.
var ErrStreamClosed = fmt.Errorf("channel: stream closed: %w", ErrDisconnected)

// Infrastructure error codes carried in ErrReply frames. These are channel
// failures, distinct from application terminations (which are ordinary
// Reply frames with a termination name from the interface type).
const (
	CodeNoSuchInterface = "ERR_NO_SUCH_INTERFACE"
	CodeNoSuchOperation = "ERR_NO_SUCH_OPERATION"
	CodeBadArgs         = "ERR_BAD_ARGS"
	CodeReplay          = "ERR_REPLAY"
	CodeAuth            = "ERR_AUTH"
	CodeInternal        = "ERR_INTERNAL"
	CodeUnavailable     = "ERR_UNAVAILABLE"
)

// RemoteError is an infrastructure failure reported by the server end of
// the channel.
type RemoteError struct {
	Code   string // one of the Code* constants
	Detail string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.Detail == "" {
		return "channel: remote error " + e.Code
	}
	return fmt.Sprintf("channel: remote error %s: %s", e.Code, e.Detail)
}

// IsRemote reports whether err is a RemoteError with the given code.
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// StageError is returned by a Stage to abort an interaction with a
// specific infrastructure code; the server end converts it to an ErrReply
// with that code rather than the generic CodeInternal.
type StageError struct {
	Code   string
	Detail string
}

// Error implements the error interface.
func (e *StageError) Error() string {
	return fmt.Sprintf("channel: stage rejected message: %s: %s", e.Code, e.Detail)
}

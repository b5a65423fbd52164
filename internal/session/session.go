// Package session is the engine layer that turns the two-party protocol
// state machines of internal/netproto into a servable system: a Server
// accepts TCP or unix-socket connections and runs many concurrent
// Sessions, each owning one peer's negotiated protocol handler, under
// per-session limits and deadlines, with per-session traffic rolling up
// into race-free aggregate totals; a Dialer is the matching client.
//
// The stack, bottom up: transport does exact bit accounting, netproto
// frames byte streams and hosts the registered protocol handlers, and
// this package owns connection lifecycle — accept, negotiate the session
// header (protocol ID, role, parameter digest), drive the handler,
// account, and tear down. Protocol semantics live entirely below;
// nothing here changes a single wire byte of the protocols themselves.
package session

import (
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// Session owns one peer's protocol state machine: the negotiated
// handler, the framed wire, and the accounting for that peer. The Server
// constructs one Session per accepted connection; inspect it in the
// OnSession callback for per-peer results (type-assert Handler to the
// concrete netproto handler to read typed outputs).
type Session struct {
	id      uint64
	peer    string
	set     string // negotiated set namespace ("" = default)
	proto   netproto.Proto
	role    netproto.Role // the role this endpoint played
	handler netproto.Handler
	wire    *netproto.Wire
	start   time.Time
	dur     time.Duration
	err     error
}

// ID is the server-unique session number (1-based, in accept order).
func (s *Session) ID() uint64 { return s.id }

// Peer is the remote address.
func (s *Session) Peer() string { return s.peer }

// Proto is the negotiated protocol.
func (s *Session) Proto() netproto.Proto { return s.proto }

// Set is the negotiated set namespace (empty for the default set).
func (s *Session) Set() string { return s.set }

// Role is the role this endpoint played in the session.
func (s *Session) Role() netproto.Role { return s.role }

// Handler returns the protocol handler the session drove; after the
// session completes it holds the typed result.
func (s *Session) Handler() netproto.Handler { return s.handler }

// Stats is this endpoint's traffic tally for the session (header frames
// included). Safe to call while the session is still running.
func (s *Session) Stats() transport.Stats { return s.wire.Stats() }

// Duration is the session's wall-clock time, from accept to handler
// completion (zero while running).
func (s *Session) Duration() time.Duration { return s.dur }

// Err is the handler's outcome (nil on success; negotiation rejections
// and protocol failures otherwise).
func (s *Session) Err() error { return s.err }

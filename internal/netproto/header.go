package netproto

import (
	"fmt"
	"io"

	"repro/internal/store"
	"repro/internal/transport"
)

// The session header: the first frame of every session, sent by the
// initiating endpoint, answered by an accept frame from the peer. It
// replaces the old symmetric digest handshake — protocol selection and
// parameter-digest validation now happen in one negotiated exchange
// before any protocol traffic flows.
//
// Session hello (initiator → peer):
//
//	magic   32 bits  0x5253594E ("RSYN")
//	version uvarint  2
//	proto   uvarint  Proto ID
//	role    uvarint  the initiator's Role
//	digest  64 bits  parameter digest (per-protocol fold of Params)
//	set     bytes    set namespace (uvarint length + bytes; empty is
//	                 the default set)
//
// Accept frame (peer → initiator):
//
//	status  uvarint  Status code (0 = OK)
//	digest  64 bits  the peer's own digest, echoed for diagnostics
//
// There is one session-hello layout: every session names its set, and
// a version other than 2 or 3 fails the hello.
//
// The carrier hello reuses the same first frame: magic + version 3 and
// nothing else. It opens a multiplexed carrier connection, not a
// session, so it names no protocol or set; each stream on the carrier
// then opens with its own session hello. The accept frame answering it
// is the standard one (status + digest 0).
const (
	helloMagic     = 0x5253_594E // "RSYN"
	sessionVersion = 2
	carrierVersion = 3
)

// Status is the peer's verdict on a session hello.
type Status uint8

const (
	// StatusOK accepts the session; protocol traffic follows.
	StatusOK Status = 0
	// StatusUnknownProto rejects an unregistered or unserved protocol.
	StatusUnknownProto Status = 1
	// StatusRoleUnavailable rejects a role the peer cannot complement.
	StatusRoleUnavailable Status = 2
	// StatusDigestMismatch rejects disagreeing parameter digests.
	StatusDigestMismatch Status = 3
	// StatusUnknownSet rejects a hello naming a set namespace the peer
	// does not host.
	StatusUnknownSet Status = 4
	// StatusMuxUnavailable rejects a carrier hello on an endpoint that
	// only runs one session per connection.
	StatusMuxUnavailable Status = 5
)

// String names the status for errors and logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnknownProto:
		return "unknown protocol"
	case StatusRoleUnavailable:
		return "role unavailable"
	case StatusDigestMismatch:
		return "parameter digest mismatch"
	case StatusUnknownSet:
		return "unknown set"
	case StatusMuxUnavailable:
		return "multiplexing unavailable"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Hello is the decoded session header.
type Hello struct {
	Proto  Proto
	Role   Role // the initiator's role
	Digest uint64
	// Set is the named-set namespace. Empty is the default set.
	Set string
	// Mux marks a carrier hello: the connection will carry many
	// multiplexed session streams rather than one session, so Proto,
	// Role, Digest, and Set are all zero.
	Mux bool
}

// ValidSetName reports whether s may be carried in a hello. The rule is
// the registry's (store.ValidName: at most 255 bytes, no control
// characters), so a name that can be created can be addressed and vice
// versa. The empty name is valid — it is the default namespace.
func ValidSetName(s string) bool { return store.ValidName(s) }

// SendHello writes the session header frame: the session layout
// carrying the namespace, or a bare carrier frame (magic + version,
// nothing else) for a carrier hello.
func SendHello(w *Wire, h Hello) error {
	if h.Mux {
		if h.Proto != 0 || h.Role != 0 || h.Digest != 0 || h.Set != "" {
			return fmt.Errorf("netproto: carrier hello must not carry session fields")
		}
		e := transport.NewEncoder()
		e.WriteBits(helloMagic, 32)
		e.WriteUvarint(carrierVersion)
		return w.Send(e)
	}
	if !ValidSetName(h.Set) {
		return fmt.Errorf("netproto: invalid set name %q in hello", h.Set)
	}
	e := transport.NewEncoder()
	e.WriteBits(helloMagic, 32)
	e.WriteUvarint(sessionVersion)
	e.WriteUvarint(uint64(h.Proto))
	e.WriteUvarint(uint64(h.Role))
	e.WriteUint64(h.Digest)
	e.WriteBytes([]byte(h.Set))
	return w.Send(e)
}

// ReadHello reads and validates the session header frame.
func ReadHello(w *Wire) (Hello, error) {
	d, err := w.Recv()
	if err != nil {
		return Hello{}, err
	}
	magic, err := d.ReadBits(32)
	if err != nil {
		return Hello{}, err
	}
	if magic != helloMagic {
		return Hello{}, fmt.Errorf("netproto: bad hello magic %#x", magic)
	}
	ver, err := d.ReadUvarint()
	if err != nil {
		return Hello{}, err
	}
	if ver == carrierVersion {
		// A carrier hello is magic + version and nothing else; trailing
		// bytes mean a corrupt or hostile frame, not a future extension.
		if d.Remaining() != 0 {
			return Hello{}, fmt.Errorf("netproto: %d trailing bytes in carrier hello", d.Remaining())
		}
		return Hello{Mux: true}, nil
	}
	if ver != sessionVersion {
		return Hello{}, fmt.Errorf("netproto: unsupported wire version %d", ver)
	}
	proto, err := d.ReadUvarint()
	if err != nil {
		return Hello{}, err
	}
	// Range-check before narrowing: 257 must not alias to proto 1.
	if proto == 0 || proto > 0xff {
		return Hello{}, fmt.Errorf("netproto: bad proto %d in hello", proto)
	}
	role, err := d.ReadUvarint()
	if err != nil {
		return Hello{}, err
	}
	if role > uint64(RoleBob) {
		return Hello{}, fmt.Errorf("netproto: bad role %d in hello", role)
	}
	digest, err := d.ReadUint64()
	if err != nil {
		return Hello{}, err
	}
	set, err := d.ReadBytes()
	if err != nil {
		return Hello{}, err
	}
	if !ValidSetName(string(set)) {
		return Hello{}, fmt.Errorf("netproto: bad set name %q in hello", set)
	}
	return Hello{Proto: Proto(proto), Role: Role(role), Digest: digest, Set: string(set)}, nil
}

// SendAccept writes the accept frame answering a hello.
func SendAccept(w *Wire, st Status, digest uint64) error {
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(st))
	e.WriteUint64(digest)
	return w.Send(e)
}

// ReadAccept reads the accept frame.
func ReadAccept(w *Wire) (Status, uint64, error) {
	d, err := w.Recv()
	if err != nil {
		return 0, 0, err
	}
	st, err := d.ReadUvarint()
	if err != nil {
		return 0, 0, err
	}
	// Range-check before narrowing: a status of 256 must not alias to
	// StatusOK and turn a rejection into an acceptance.
	if st > 0xff {
		return 0, 0, fmt.Errorf("netproto: bad status %d in accept", st)
	}
	digest, err := d.ReadUint64()
	if err != nil {
		return 0, 0, err
	}
	return Status(st), digest, nil
}

// Initiate opens a session for h against the peer's default set: it
// sends the hello and waits for the peer's accept. On return with nil
// error the wire is ready for h.Run.
func Initiate(w *Wire, h Handler) error {
	return InitiateSet(w, h, "")
}

// InitiateSet opens a session for h against the named set on the peer
// (empty = default).
func InitiateSet(w *Wire, h Handler, set string) error {
	if err := SendHello(w, Hello{Proto: h.Proto(), Role: h.Role(), Digest: h.Digest(), Set: set}); err != nil {
		return err
	}
	st, peerDigest, err := ReadAccept(w)
	if err != nil {
		return err
	}
	if st != StatusOK {
		return fmt.Errorf("netproto: peer rejected %v session: %v (local digest %#x, peer %#x)",
			h.Proto(), st, h.Digest(), peerDigest)
	}
	return nil
}

// InitiateMux negotiates a carrier over w: it sends the bare carrier
// hello and waits for the peer's accept. Any failure means the
// connection cannot carry multiplexed streams.
func InitiateMux(w *Wire) error {
	if err := SendHello(w, Hello{Mux: true}); err != nil {
		return err
	}
	st, _, err := ReadAccept(w)
	if err != nil {
		return err
	}
	if st != StatusOK {
		return fmt.Errorf("netproto: peer rejected carrier: %v", st)
	}
	return nil
}

// PendingSession is a session whose hello has been sent but whose
// accept has not yet been read: the initiator's opening protocol
// frames follow the hello without waiting, saving one round trip per
// session on a multiplexed carrier, where the stream stages them all
// and they share one socket write. The accept is validated lazily —
// immediately before the first protocol frame is read via Conn, or
// explicitly via Complete.
type PendingSession struct {
	w       *Wire
	h       Handler
	checked bool
	err     error
}

// InitiateSetPipelined sends the hello for h against the named set
// without waiting for the peer's accept. On a mux stream the hello is
// staged, and leaves with the stream's open frame and the handler's
// first protocol frames in one write when the handler first reads.
func InitiateSetPipelined(w *Wire, h Handler, set string) (*PendingSession, error) {
	if err := SendHello(w, Hello{Proto: h.Proto(), Role: h.Role(), Digest: h.Digest(), Set: set}); err != nil {
		return nil, err
	}
	return &PendingSession{w: w, h: h}, nil
}

// Complete reads and validates the peer's accept if it has not been
// consumed yet. Callers run it after the handler finishes, so a
// rejection is surfaced even when the handler never received a frame.
func (p *PendingSession) Complete() error {
	if p.checked {
		return p.err
	}
	p.checked = true
	st, peerDigest, err := ReadAccept(p.w)
	if err != nil {
		p.err = err
		return p.err
	}
	if st != StatusOK {
		p.err = fmt.Errorf("netproto: peer rejected %v session: %v (local digest %#x, peer %#x)",
			p.h.Proto(), st, p.h.Digest(), peerDigest)
	}
	return p.err
}

// Conn returns the connection to run the handler over: sends pass
// through, and the first receive consumes the peer's accept before
// returning protocol frames.
func (p *PendingSession) Conn() transport.Conn { return pendingConn{p} }

type pendingConn struct{ p *PendingSession }

func (c pendingConn) Send(e *transport.Encoder) error { return c.p.w.Send(e) }

func (c pendingConn) Flush() error { return c.p.w.Flush() }

// Stats forwards the wire's tally, so a handler reads its session's
// traffic through transport.ConnStats as it would on the bare wire.
func (c pendingConn) Stats() transport.Stats { return c.p.w.Stats() }

func (c pendingConn) Recv() (*transport.Decoder, error) {
	if err := c.p.Complete(); err != nil {
		return nil, err
	}
	return c.p.w.Recv()
}

// AnswerHello answers a hello already read from w with the handler res
// resolves for it, sending the accept frame. It is the one place a
// hello's status is decided, in this order:
//
//	carrier hello                       StatusMuxUnavailable
//	set unknown to res                  StatusUnknownSet
//	only the hello's own role served    StatusRoleUnavailable
//	no handler for the protocol         StatusUnknownProto
//	handler digest differs              StatusDigestMismatch
//	otherwise                           StatusOK
//
// A rejection is sent before the error returns, so the initiator fails
// with a reason rather than a dead stream; it echoes digest 0, except a
// digest mismatch, which echoes the local handler's. On StatusOK the
// handler is returned ready to Run. A nil res hosts no set. A carrier
// hello is refused here because it only opens a connection that
// multiplexes sessions: session.Server accepts it before calling this.
func AnswerHello(w *Wire, hello Hello, res Resolver) (Handler, error) {
	if hello.Mux {
		SendAccept(w, StatusMuxUnavailable, 0) //nolint:errcheck // the rejection is the error
		return nil, fmt.Errorf("netproto: carrier hello where a session hello belongs: %v", StatusMuxUnavailable)
	}
	var factory func() Handler
	exists := false
	if res != nil {
		factory, exists = res(hello.Set, hello.Proto, hello.Role)
	}
	if factory == nil {
		st := StatusUnknownSet
		if exists {
			st = StatusUnknownProto
			// A Resolver cannot be enumerated; asking it for the
			// handler of the hello's own role detects a role clash.
			if f, _ := res(hello.Set, hello.Proto, hello.Role.Peer()); f != nil {
				st = StatusRoleUnavailable
			}
		}
		SendAccept(w, st, 0) //nolint:errcheck // the rejection is the error
		return nil, fmt.Errorf("netproto: no handler in set %q for %v as peer of %v: %v", hello.Set, hello.Proto, hello.Role, st)
	}
	h := factory()
	digest := h.Digest()
	if digest != hello.Digest {
		SendAccept(w, StatusDigestMismatch, digest) //nolint:errcheck // the rejection is the error
		return nil, fmt.Errorf("netproto: %v %v (local %#x, peer %#x)", hello.Proto, StatusDigestMismatch, digest, hello.Digest)
	}
	if err := SendAccept(w, StatusOK, digest); err != nil {
		return nil, err
	}
	return h, nil
}

// Accept answers an initiator's hello on behalf of the bound handler h,
// which serves the default set only: the two-party path, answered by
// AnswerHello like every session.Server hello.
func Accept(w *Wire, h Handler) error {
	hello, err := ReadHello(w)
	if err != nil {
		return err
	}
	_, err = AnswerHello(w, hello, Handlers(func() Handler { return h }))
	return err
}

// RunInitiator negotiates a session for h over rw and runs its state
// machine; the wire is returned for traffic accounting.
func RunInitiator(rw io.ReadWriter, h Handler) (*Wire, error) {
	w := NewWire(rw)
	if err := Initiate(w, h); err != nil {
		return w, err
	}
	return w, h.Run(w)
}

// RunResponder answers a session for h over rw and runs its state
// machine; the wire is returned for traffic accounting.
func RunResponder(rw io.ReadWriter, h Handler) (*Wire, error) {
	w := NewWire(rw)
	if err := Accept(w, h); err != nil {
		return w, err
	}
	return w, h.Run(w)
}

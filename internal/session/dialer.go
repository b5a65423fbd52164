package session

import (
	"fmt"
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// Dialer opens client sessions against a reconciliation server. The zero
// value plus an Addr dials TCP with the documented defaults. A Dialer is
// stateless and safe for concurrent use; each Do opens one connection,
// runs one session, and closes it.
type Dialer struct {
	// Network is "tcp" or "unix" (default "tcp").
	Network string
	// Addr is the server address (host:port, or a socket path).
	Addr string
	// Set names the server-side set namespace to reconcile against.
	// Empty dials the default set.
	Set string
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
	// SessionTimeout is the absolute budget for the whole session
	// (default 2 minutes; negative disables).
	SessionTimeout time.Duration
	// Transport supplies connections (nil = NetTransport, the real
	// network). Point it at a simnet host to dial through the
	// deterministic virtual network instead.
	Transport Transport
}

// Do dials the server, negotiates a session for h, and runs its state
// machine to completion. Typed results are read from h afterwards; the
// returned stats are this endpoint's tally, header frames included.
func (d Dialer) Do(h netproto.Handler) (transport.Stats, error) {
	network := d.Network
	if network == "" {
		network = "tcp"
	}
	dialTimeout := d.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 10 * time.Second
	}
	sessionTimeout := d.SessionTimeout
	if sessionTimeout == 0 {
		sessionTimeout = 2 * time.Minute
	}
	tr := d.Transport
	if tr == nil {
		tr = NetTransport
	}
	conn, err := tr.DialTimeout(network, d.Addr, dialTimeout)
	if err != nil {
		return transport.Stats{}, fmt.Errorf("session: dial %s %s: %w", network, d.Addr, err)
	}
	defer conn.Close()
	if sessionTimeout > 0 {
		conn.SetDeadline(time.Now().Add(sessionTimeout)) //nolint:errcheck
	}
	w := netproto.NewWire(conn)
	// Handlers materialize their results before Run returns, so the
	// frame buffers can go back to the pool as soon as the session ends
	// (stats are read before the deferred Release runs).
	defer w.Release()
	if err := netproto.InitiateSet(w, h, d.Set); err != nil {
		return w.Stats(), err
	}
	if err := h.Run(w); err != nil {
		return w.Stats(), err
	}
	return w.Stats(), nil
}

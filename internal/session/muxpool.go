package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// ErrPoolClosed is returned by MuxPool.Do after Close.
var ErrPoolClosed = errors.New("session: mux pool closed")

// MuxPool runs client sessions over pooled carriers: one live
// multiplexed connection per address, dialed lazily, health-checked on
// every use, and re-dialed after a cut. A failed carrier dial or
// negotiation fails only the session that needed it; the next session
// to that address dials a fresh carrier.
//
// Concurrent Do calls against one address share the carrier: each runs
// on its own stream, and a session's opening flight (hello plus first
// protocol frames) is written without waiting for the accept, so k+1
// sessions' hellos can be in flight while session k is still draining.
// A MuxPool is safe for concurrent use; the zero value is usable with
// the same defaults as a zero Dialer.
type MuxPool struct {
	// Network is "tcp" or "unix" (default "tcp").
	Network string
	// DialTimeout bounds carrier establishment, negotiation included
	// (default 10s).
	DialTimeout time.Duration
	// SessionTimeout is the absolute budget for each session — a
	// per-stream deadline, since a shared connection deadline would
	// sever every co-muxed session (default 2 minutes; negative
	// disables).
	SessionTimeout time.Duration
	// Transport supplies connections (nil = NetTransport).
	Transport Transport

	mu      sync.Mutex
	entries map[string]*poolEntry
	closed  bool

	dials    atomic.Uint64
	reuses   atomic.Uint64
	sessions atomic.Uint64
}

// poolEntry is the per-address slot. Its lock single-flights the dial:
// concurrent sessions to a cold address queue behind one carrier dial
// instead of racing their own.
type poolEntry struct {
	mu sync.Mutex
	m  *muxConn // live carrier, nil before first dial; replaced when dead
}

// PoolStats counts the pool's work since creation.
type PoolStats struct {
	// Dials is the number of carrier connections actually dialed. The
	// dial-amortization win is Sessions - Dials.
	Dials uint64
	// Reuses counts sessions that rode an already-live carrier.
	Reuses uint64
	// Sessions counts all sessions attempted through the pool.
	Sessions uint64
}

func (st PoolStats) String() string {
	return fmt.Sprintf("%d sessions over %d dials (%d reused)", st.Sessions, st.Dials, st.Reuses)
}

// Add returns the field-wise sum of two tallies, for totals across
// pools.
func (st PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Dials:    st.Dials + o.Dials,
		Reuses:   st.Reuses + o.Reuses,
		Sessions: st.Sessions + o.Sessions,
	}
}

// Stats snapshots the pool's counters.
func (p *MuxPool) Stats() PoolStats {
	return PoolStats{
		Dials:    p.dials.Load(),
		Reuses:   p.reuses.Load(),
		Sessions: p.sessions.Load(),
	}
}

func (p *MuxPool) network() string {
	if p.Network == "" {
		return "tcp"
	}
	return p.Network
}

func (p *MuxPool) dialTimeout() time.Duration {
	if p.DialTimeout == 0 {
		return 10 * time.Second
	}
	return p.DialTimeout
}

func (p *MuxPool) sessionTimeout() time.Duration {
	if p.SessionTimeout == 0 {
		return 2 * time.Minute
	}
	return p.SessionTimeout
}

func (p *MuxPool) transport() Transport {
	if p.Transport == nil {
		return NetTransport
	}
	return p.Transport
}

// Do runs one session for h against the named set at addr on the
// pooled carrier, dialing one first if none is live. Results are read
// from h afterwards, exactly as with Dialer.Do.
func (p *MuxPool) Do(addr, set string, h netproto.Handler) (transport.Stats, error) {
	return p.DoTimeout(addr, set, h, 0)
}

// DoTimeout is Do with a per-session deadline override: timeout > 0
// replaces the pool's SessionTimeout for this one session (the cluster
// layer derives per-peer adaptive deadlines from EWMA RTTs). Zero means
// the pool default.
func (p *MuxPool) DoTimeout(addr, set string, h netproto.Handler, timeout time.Duration) (transport.Stats, error) {
	p.sessions.Add(1)
	m, err := p.carrier(addr)
	if err != nil {
		return transport.Stats{}, err
	}
	return p.runStream(m, set, h, timeout)
}

// Warm establishes the carrier for addr if none is live, so later
// concurrent sessions share it instead of racing the dial.
func (p *MuxPool) Warm(addr string) error {
	_, err := p.carrier(addr)
	return err
}

// carrier returns a live carrier for addr, dialing one if needed.
func (p *MuxPool) carrier(addr string) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.entries == nil {
		p.entries = make(map[string]*poolEntry)
	}
	e := p.entries[addr]
	if e == nil {
		e = &poolEntry{}
		p.entries[addr] = e
	}
	p.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.m != nil && e.m.alive() {
		p.reuses.Add(1)
		return e.m, nil
	}
	m, err := p.dialCarrier(addr)
	if err != nil {
		return nil, err
	}
	e.m = m
	return m, nil
}

// dialCarrier dials addr and negotiates a carrier on it.
func (p *MuxPool) dialCarrier(addr string) (*muxConn, error) {
	network := p.network()
	conn, err := p.transport().DialTimeout(network, addr, p.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("session: dial %s %s: %w", network, addr, err)
	}
	p.dials.Add(1)
	// Negotiation shares the dial budget; the deadline comes off once
	// the carrier is up (streams carry their own).
	conn.SetDeadline(time.Now().Add(p.dialTimeout())) //nolint:errcheck
	w := netproto.NewWire(conn)
	err = netproto.InitiateMux(w)
	w.Release()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("session: carrier negotiation with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	m := newMuxConn(conn, nil)
	if t := p.sessionTimeout(); t > 0 {
		// Bounds each carrier write so a peer that stops draining the
		// shared connection cannot wedge every stream forever.
		m.writeTimeout = t
	}
	go m.readLoop()
	return m, nil
}

// runStream runs one session on a fresh stream of a live carrier. The
// open, the hello and the handler's first protocol frames leave in one
// write, at the session's first read; the accept is verified on that
// read (netproto's pipelined initiation), collapsing the opening
// exchange into one round trip.
func (p *MuxPool) runStream(m *muxConn, set string, h netproto.Handler, timeout time.Duration) (transport.Stats, error) {
	st, err := m.OpenStream()
	if err != nil {
		return transport.Stats{}, err
	}
	if timeout == 0 {
		timeout = p.sessionTimeout()
	}
	if timeout > 0 {
		st.setTimeout(timeout)
	}
	w := netproto.NewWire(st)
	defer w.Release()
	if err := initiateStream(w, set, h); err != nil {
		st.Close() //nolint:errcheck // the session's error is the one to report
		return w.Stats(), err
	}
	return w.Stats(), st.closeClean()
}

// initiateStream runs the initiator's half of a session over w.
func initiateStream(w *netproto.Wire, set string, h netproto.Handler) error {
	pend, err := netproto.InitiateSetPipelined(w, h, set)
	if err != nil {
		return err
	}
	if err := h.Run(pend.Conn()); err != nil {
		return err
	}
	// Every protocol reads at least one response, so the accept has
	// normally been verified by now; this covers degenerate handlers
	// that never read.
	return pend.Complete()
}

// errPoolReset fails whatever streams are still live on a carrier the
// pool dropped via Reset.
var errPoolReset = errors.New("session: pool reset")

// Reset drops every pooled carrier: each is shut down and forgotten, so
// the next session per address dials fresh. The pool stays open. The
// point is determinism around network faults: a carrier severed by a
// partition is detected asynchronously by its read loop, so whether
// the next session sees "carrier failed" or a fresh dial is a race — a
// caller that knows connectivity just changed (the scenario harness
// applying a fault round) resets instead, making every post-fault
// session start from the same cold state.
func (p *MuxPool) Reset() {
	p.mu.Lock()
	entries := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.m != nil {
			e.m.shutdown(errPoolReset)
			e.m = nil
		}
		e.mu.Unlock()
	}
}

// Close shuts down every pooled carrier; in-flight streams fail with
// ErrPoolClosed and later Do calls are refused. Idempotent.
func (p *MuxPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	entries := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.m != nil {
			e.m.shutdown(ErrPoolClosed)
		}
		e.mu.Unlock()
	}
	return nil
}

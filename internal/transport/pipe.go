package transport

import (
	"errors"
	"sync"
)

// Conn is one party's view of a bidirectional message channel. The
// multi-round protocols (gap, setsets, wire-level SyncIDs) are written
// against this interface so the same party code runs in-process (Pipe),
// over a network connection (netproto.Wire), or anywhere else messages
// can be carried.
type Conn interface {
	// Send transmits the encoder's payload to the peer, consuming it.
	Send(e *Encoder) error
	// Recv blocks until the peer's next message arrives.
	Recv() (*Decoder, error)
}

// PipeConn is one end of an in-process message pipe. Both ends share a
// Stats tally so callers read exact bidirectional traffic.
type PipeConn struct {
	out   chan []byte
	in    chan []byte
	dir   Direction // direction of this end's sends, for Stats
	stats *pipeStats
}

type pipeStats struct {
	mu sync.Mutex
	s  Stats
}

// NewPipe returns the two ends of a message pipe: the first is by
// convention Alice's (its sends count as AliceToBob). The buffer allows
// a party to send its final message and return without waiting for the
// peer to drain it.
func NewPipe() (alice, bob *PipeConn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	st := &pipeStats{}
	return &PipeConn{out: ab, in: ba, dir: AliceToBob, stats: st},
		&PipeConn{out: ba, in: ab, dir: BobToAlice, stats: st}
}

// Send implements Conn.
func (p *PipeConn) Send(e *Encoder) error {
	data, bits := e.finish()
	p.stats.mu.Lock()
	p.stats.s.Rounds++
	if p.dir == AliceToBob {
		p.stats.s.BitsAtoB += bits
		p.stats.s.MsgsAtoB++
	} else {
		p.stats.s.BitsBtoA += bits
		p.stats.s.MsgsBtoA++
	}
	p.stats.s.ObservePayload(bits)
	p.stats.mu.Unlock()
	select {
	case p.out <- data:
		return nil
	default:
		return errors.New("transport: pipe buffer full (protocol round mismatch)")
	}
}

// Recv implements Conn.
func (p *PipeConn) Recv() (*Decoder, error) {
	data, ok := <-p.in
	if !ok {
		return nil, errors.New("transport: pipe closed")
	}
	return NewDecoder(data), nil
}

// Close closes this end's outgoing stream; the peer's Recv then fails,
// which protocols treat as a peer crash.
func (p *PipeConn) Close() {
	close(p.out)
}

// Stats returns the shared traffic tally (both directions).
func (p *PipeConn) Stats() Stats {
	p.stats.mu.Lock()
	defer p.stats.mu.Unlock()
	return p.stats.s
}

// ConnStats extracts Stats from a Conn when the implementation records
// them (PipeConn and netproto wires do); otherwise it returns zero Stats
// and false.
func ConnStats(c Conn) (Stats, bool) {
	type statser interface{ Stats() Stats }
	if s, ok := c.(statser); ok {
		return s.Stats(), true
	}
	return Stats{}, false
}

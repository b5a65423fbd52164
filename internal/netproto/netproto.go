// Package netproto carries the reconciliation protocols over real byte
// streams (net.Conn, pipes, files). Messages are length-prefixed frames;
// a Wire adapts any io.ReadWriter to the transport.Conn interface the
// protocol state machines are written against, so the same party code
// that runs in-process in the package tests runs across a network here.
//
// The protocols themselves are registered Handlers (see registry.go):
// each handler binds one party's state machine to its parameters and
// local data, and the session layer (internal/session) — or the
// two-party helpers in protocols.go — drives it. Parameter agreement is
// the caller's job (both sides must construct identical protocol Params,
// including the shared seed — the paper's public coins); the session
// header (header.go) carries a parameter digest that both ends validate
// before any protocol traffic flows, failing fast on mismatch instead of
// producing garbage.
//
// Exact-ID reconciliation on the wire is repair (ProtoRepair,
// cluster.go): a strata-sized IBLT difference exchange that the
// responder doubles on every stall, then the points behind the
// differing IDs. Bare uint64 ID sets reconcile in process only (the
// root package's SyncIDs).
package netproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// maxFrame bounds a frame so a corrupted length prefix cannot trigger an
// enormous allocation.
const maxFrame = 1 << 28

// wireMem is a Wire's reusable frame staging: the outbound buffer one
// whole frame (header + payload) is coalesced into, and the inbound
// buffer frames are decoded from. Pooled across wires so a server's
// steady state reads and writes frames without allocating.
type wireMem struct {
	out []byte
	in  []byte
}

var wireMemPool = sync.Pool{New: func() any { return new(wireMem) }}

// Wire adapts an io.ReadWriter to transport.Conn with length-prefixed
// frames and local traffic accounting. The tallies are atomic, so a
// server may snapshot Stats while the session is mid-protocol; Send and
// Recv themselves may each be used by at most one goroutine at a time.
// Full-duplex use — one sender, one receiver — is fine over a plain
// byte stream, but not over a session's mux stream, whose receive
// flushes the sends it staged: there one goroutine runs the session.
//
// Buffer ownership: a Decoder returned by Recv (and any bytes borrowed
// from it via ReadBytesBorrow) is valid only until the next Recv or
// Release on the same wire — the frame buffer is reused. An Encoder
// passed to Send is consumed and recycled; it must not be touched
// afterwards. Release returns the wire's buffers to a shared pool once
// the session is done; Stats stay readable.
type Wire struct {
	rw         io.ReadWriter
	mu         sync.Mutex // guards mem against a concurrent Release
	mem        *wireMem
	dec        transport.Decoder
	sent       atomic.Int64 // payload bits sent
	recvd      atomic.Int64
	msgsSent   atomic.Int64
	msgsRecvd  atomic.Int64
	maxPayload atomic.Int64 // largest single frame either direction, bits
}

// observeMax raises m to bits if bits is larger, tolerating concurrent
// raises from the opposite direction's goroutine.
func observeMax(m *atomic.Int64, bits int64) {
	for {
		cur := m.Load()
		if bits <= cur || m.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// NewWire wraps a byte stream.
func NewWire(rw io.ReadWriter) *Wire { return &Wire{rw: rw} }

// buffers returns the wire's frame staging, attaching pooled buffers on
// first use (or after Release).
func (w *Wire) buffers() *wireMem {
	w.mu.Lock()
	m := w.mem
	if m == nil {
		m = wireMemPool.Get().(*wireMem)
		w.mem = m
	}
	w.mu.Unlock()
	return m
}

// Release returns the wire's frame buffers to the shared pool. Call it
// once per wire, after the session completes and no decoded frame or
// borrowed bytes are referenced. The wire remains usable (Stats, even
// further frames — fresh buffers attach on demand).
func (w *Wire) Release() {
	w.mu.Lock()
	m := w.mem
	w.mem = nil
	w.mu.Unlock()
	if m != nil {
		w.dec.Reset(nil)
		wireMemPool.Put(m)
	}
}

// Send implements transport.Conn: one frame = 4-byte big-endian length +
// payload, coalesced into a single Write. A stream that stages writes
// (a session's mux stream) holds the frame until its owner's turn ends;
// see Flush. The encoder is consumed and recycled; the caller must not
// use it again.
func (w *Wire) Send(e *transport.Encoder) error {
	data, bits := e.Pack()
	m := w.buffers()
	frame := append(m.out[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(frame, uint32(len(data)))
	frame = append(frame, data...)
	m.out = frame
	transport.Recycle(e, data)
	if _, err := w.rw.Write(frame); err != nil {
		return fmt.Errorf("netproto: send frame: %w", err)
	}
	w.sent.Add(bits)
	w.msgsSent.Add(1)
	observeMax(&w.maxPayload, bits)
	return nil
}

// Flush writes out the frames the underlying stream has staged, when it
// stages them: a mux stream holds its owner's frames until the owner
// reads or closes. On any other stream it does nothing.
func (w *Wire) Flush() error {
	if f, ok := w.rw.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Flush flushes conn when it is a Wire, or a session's view of one; no
// other connection stages frames. A handler that sends and then waits
// on something other than its own stream — a merge, another session, a
// channel — calls it first, or its peer waits too.
func Flush(conn transport.Conn) error {
	if f, ok := conn.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Recv implements transport.Conn. The returned decoder (and bytes
// borrowed from it) is invalidated by the next Recv or Release on this
// wire.
func (w *Wire) Recv() (*transport.Decoder, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.rw, hdr[:]); err != nil {
		return nil, fmt.Errorf("netproto: recv header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netproto: frame of %d bytes exceeds limit", n)
	}
	m := w.buffers()
	if uint32(cap(m.in)) < n {
		m.in = make([]byte, n)
	}
	data := m.in[:n]
	if _, err := io.ReadFull(w.rw, data); err != nil {
		return nil, fmt.Errorf("netproto: recv payload: %w", err)
	}
	w.recvd.Add(int64(n) * 8)
	w.msgsRecvd.Add(1)
	observeMax(&w.maxPayload, int64(n)*8)
	w.dec.Reset(data)
	return &w.dec, nil
}

// Stats reports this endpoint's view of the traffic: bits it sent count
// as AliceToBob, bits it received as BobToAlice (i.e. "outbound" /
// "inbound" from the local perspective). Safe to call concurrently with
// an in-flight session.
func (w *Wire) Stats() transport.Stats {
	sent, recvd := w.msgsSent.Load(), w.msgsRecvd.Load()
	st := transport.Stats{
		Rounds:   int(sent + recvd),
		BitsAtoB: w.sent.Load(),
		BitsBtoA: w.recvd.Load(),
		MsgsAtoB: int(sent),
		MsgsBtoA: int(recvd),
	}
	st.ObservePayload(w.maxPayload.Load())
	return st
}

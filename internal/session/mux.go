package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

// Carrier framing (RSYN v3): after the carrier hello/accept exchange,
// the connection carries mux frames, each a 4-byte big-endian length
// prefix followed by a payload of
//
//	stream uvarint  stream ID (>= 1; assigned by the dialing side,
//	                strictly increasing over the carrier's lifetime)
//	kind   uvarint  0 = data, 1 = close, 2 = open
//	data   bytes    data frames only: uvarint length + raw bytes,
//	                extending exactly to the end of the frame
//
// A stream's concatenated data chunks are byte-identical to the byte
// stream of a dedicated session connection: the session hello,
// accept, and every protocol frame, in netproto.Wire's framing. Each
// inner wire frame becomes exactly one mux data frame, so frame
// boundaries survive multiplexing.
//
// Writes follow turns, not frames. A stream stages its outgoing frames
// and writes them in one conn write when its owner's turn ends: when
// the owner is about to block in Read with nothing buffered, when it
// closes the stream, when a handler calls Flush, or once maxMuxStaged
// bytes are staged. So one protocol turn is one socket write, and a
// latency-priced link charges a session per round trip, not per frame.
// The flush points depend only on the session's own frames, never on
// timers, so a seed's byte offsets stay reproducible.
//
// Stream lifecycle: the dialer announces a fresh ID with an empty open
// frame, queued in pend atomically with the ID assignment so open
// frames hit the wire in strictly increasing ID order even when
// streams open concurrently (the accepting demux distinguishes "new
// stream" from "late frame for a forgotten stream" purely by that
// monotonicity); the session hello follows as the stream's first data
// frame, in the same write. Each side sends at most one close frame
// and forgets the stream as soon as it has closed locally — late frames
// for a forgotten ID are dropped. A clean initiator's close rides its
// last staged frames, or waits in pend for the carrier's next write; a
// clean responder sends none (closeQuiet); an error exit announces its
// close at once. Protocol violations (stream ID 0, a
// server-side frame on an ID the dialer never opened, a data frame for
// an ID never announced by an open frame, a non-monotonic open, an
// unknown kind, a data length that overruns its frame, too many live
// streams, an overfull stream buffer) kill the whole carrier: all live
// streams fail with the connection error, and the dialer's pool
// re-dials.
const (
	muxFrameData  = 0
	muxFrameClose = 1
	muxFrameOpen  = 2

	// maxMuxFrame bounds one carrier frame: an inner wire frame
	// (netproto caps those at 1<<28) plus a few header bytes. Enforced
	// before any allocation, so a hostile length prefix cannot reserve
	// memory.
	maxMuxFrame = 1<<28 + 64
	// maxMuxBuffer caps one stream's undelivered inbound bytes. The
	// alternating protocols above never buffer more than the frames of
	// one pipelined opening flight; a peer pushing unbounded data into
	// a stream nobody is reading is hostile, and kills the carrier.
	maxMuxBuffer = 1 << 28
	// maxMuxStreams caps concurrently live streams per carrier.
	maxMuxStreams = 1024
	// maxMuxStaged is the staged outbound size at which a stream writes
	// without waiting for its turn to end, so a long turn streams out
	// instead of piling up in memory.
	maxMuxStaged = 64 << 10
)

// stagedPool recycles streams' outbound staging buffers: most streams
// live for one short session, and a fresh buffer each would be a
// steady allocation per session.
var stagedPool = sync.Pool{New: func() any { return new([]byte) }}

// errMuxStreamClosed is returned by operations on a locally closed
// stream.
var errMuxStreamClosed = errors.New("session: mux stream closed")

// muxConn is one endpoint of a carrier. Both sides run the
// same demux read loop; the side that accepts peer-opened streams
// (the server) sets onStream, the dialing side opens streams with
// OpenStream. The read loop must always be draining — that is what
// lets a peer's writes complete while local handlers are mid-frame,
// and what makes pipelined opening flights deadlock-free over
// synchronous pipes.
type muxConn struct {
	conn net.Conn
	// peerName is the remote address, captured at negotiation so log
	// lines and stream session records survive the connection's death.
	peerName string
	// onStream, when set, is called synchronously from the read loop
	// for each peer-opened stream, before any of its data is pushed.
	onStream func(*muxStream)
	// writeTimeout bounds each carrier write (0 = none): a peer that
	// stops draining would otherwise block writers forever, since
	// per-stream deadlines cannot cover a shared connection.
	writeTimeout time.Duration

	wmu sync.Mutex
	// pend holds frames that belong to no stream's turn: open frames
	// queued by OpenStream, and the close frames of clean initiator
	// exits that had nothing left to send. They ride in front of the
	// carrier's next write. An open is followed by its own stream's
	// first flush, so it adds no latency; a deferred close is read by a
	// responder that has already finished, so delaying it costs
	// nothing, and it saves the write that would carry it alone.
	pend []byte

	mu       sync.Mutex
	streams  map[uint64]*muxStream
	nextID   uint64 // next locally opened stream ID
	maxSeen  uint64 // highest peer-opened stream ID
	err      error  // terminal carrier error; nil while healthy
	draining bool   // close the conn when the last stream finishes
}

func newMuxConn(conn net.Conn, onStream func(*muxStream)) *muxConn {
	return &muxConn{
		conn:     conn,
		peerName: conn.RemoteAddr().String(),
		onStream: onStream,
		streams:  make(map[uint64]*muxStream),
		nextID:   1,
	}
}

// alive reports whether the carrier can still open streams.
func (m *muxConn) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil
}

// fail kills the carrier: records the first error, closes the raw
// connection, and fails every live stream with it. The simnet cut
// error (or whatever severed the conn) propagates verbatim via %w.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = fmt.Errorf("session: mux carrier failed: %w", err)
	failed := make([]*muxStream, 0, len(m.streams))
	for _, st := range m.streams {
		failed = append(failed, st)
	}
	m.streams = make(map[uint64]*muxStream)
	cerr := m.err
	// Close before publishing the error: any observer that sees a dead
	// carrier may rely on its connection being fully released (the
	// simnet leak gauge checks open endpoints right after teardown).
	m.conn.Close()
	m.mu.Unlock()
	for _, st := range failed {
		st.fail(cerr)
	}
}

// shutdown closes the carrier deliberately (pool close): live streams
// fail with the given reason.
func (m *muxConn) shutdown(reason error) {
	m.fail(reason)
}

// drain stops the carrier once idle: if no streams are live the
// connection closes now, otherwise it closes when the last stream is
// forgotten. New peer-opened streams are still accepted by the read
// loop; the server rejects them at a higher level while closing.
func (m *muxConn) drain() {
	m.mu.Lock()
	m.draining = true
	closeNow := len(m.streams) == 0 && m.err == nil
	m.mu.Unlock()
	if closeNow {
		m.conn.Close()
	}
}

// OpenStream allocates the next locally owned stream and announces it
// to the peer with an open frame. The write lock is held across the ID
// assignment and the staging so open frames reach the wire in ID
// order — otherwise two streams opening concurrently could deliver the
// higher ID first and the peer's monotonicity check would silently
// discard the lower stream as a late frame. The open frame waits in
// pend: it rides in front of the carrier's next write, normally this
// stream's first flush of its hello and opening protocol frames.
func (m *muxConn) OpenStream() (*muxStream, error) {
	m.wmu.Lock()
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		m.wmu.Unlock()
		return nil, err
	}
	if len(m.streams) >= maxMuxStreams {
		m.mu.Unlock()
		m.wmu.Unlock()
		return nil, fmt.Errorf("session: mux carrier at %d live streams", maxMuxStreams)
	}
	st := newMuxStream(m, m.nextID)
	m.streams[m.nextID] = st
	m.nextID++
	m.mu.Unlock()
	m.pend = appendMuxFrame(m.pend, st.id, muxFrameOpen, nil)
	m.wmu.Unlock()
	return st, nil
}

// forget drops a stream from the routing table; late inbound frames
// for its ID are discarded. When the carrier is draining and this was
// the last stream, the connection closes.
func (m *muxConn) forget(st *muxStream) {
	m.mu.Lock()
	delete(m.streams, st.id)
	closeNow := m.draining && len(m.streams) == 0 && m.err == nil
	m.mu.Unlock()
	if closeNow {
		m.conn.Close()
	}
}

// appendMuxFrame encodes one carrier frame (length prefix backfilled)
// onto b.
func appendMuxFrame(b []byte, id uint64, kind uint64, data []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, kind)
	if kind == muxFrameData {
		b = binary.AppendUvarint(b, uint64(len(data)))
		b = append(b, data...)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// deferClose queues a close frame in pend, to ride the carrier's next
// write.
func (m *muxConn) deferClose(id uint64) {
	m.wmu.Lock()
	m.pend = appendMuxFrame(m.pend, id, muxFrameClose, nil)
	m.wmu.Unlock()
}

// write sends encoded carrier frames, behind whatever waits in pend, in
// one conn write. It is the carrier's only write path; wmu keeps each
// write whole on the shared connection.
func (m *muxConn) write(frames []byte) error {
	m.wmu.Lock()
	b := frames
	if len(m.pend) > 0 {
		m.pend = append(m.pend, frames...)
		b = m.pend
	}
	if m.writeTimeout > 0 {
		m.conn.SetWriteDeadline(time.Now().Add(m.writeTimeout)) //nolint:errcheck
	}
	_, err := m.conn.Write(b)
	m.pend = m.pend[:0]
	m.wmu.Unlock()
	if err != nil {
		return m.sealWriteError(err)
	}
	return nil
}

// sealWriteError kills the carrier over a failed write and returns the
// carrier's terminal error (the first failure wins).
func (m *muxConn) sealWriteError(err error) error {
	m.fail(err)
	m.mu.Lock()
	err = m.err
	m.mu.Unlock()
	return err
}

// readLoop demultiplexes carrier frames until the connection dies. It
// reuses one frame buffer; stream payloads are copied out into the
// per-stream inbound buffers before the next frame overwrites it.
func (m *muxConn) readLoop() {
	var hdr [4]byte
	var buf []byte
	var dec transport.Decoder
	for {
		if _, err := io.ReadFull(m.conn, hdr[:]); err != nil {
			m.fail(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxMuxFrame {
			m.fail(fmt.Errorf("carrier frame of %d bytes exceeds limit", n))
			return
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		frame := buf[:n]
		if _, err := io.ReadFull(m.conn, frame); err != nil {
			m.fail(err)
			return
		}
		dec.Reset(frame)
		if err := m.dispatch(&dec, frame); err != nil {
			m.fail(err)
			return
		}
	}
}

// dispatch routes one carrier frame. A non-nil error is a protocol
// violation and kills the carrier.
func (m *muxConn) dispatch(d *transport.Decoder, frame []byte) error {
	id, err := d.ReadUvarint()
	if err != nil {
		return fmt.Errorf("carrier frame header: %w", err)
	}
	if id == 0 {
		return errors.New("carrier frame names stream 0")
	}
	kind, err := d.ReadUvarint()
	if err != nil {
		return fmt.Errorf("carrier frame header: %w", err)
	}
	switch kind {
	case muxFrameData:
		// Validate the declared length against the bytes actually
		// present (transport.Decoder.Remaining) BEFORE touching them: a
		// hostile header must not reserve memory or alias the next
		// frame. The length must also account for exactly the rest of
		// the frame — the outer length prefix already delimits the
		// data, so the inner one is a pure integrity check.
		n, err := d.ReadUvarint()
		if err != nil {
			return fmt.Errorf("carrier data frame: %w", err)
		}
		rem := d.Remaining()
		if n > uint64(rem) {
			return fmt.Errorf("carrier data frame claims %d bytes, %d present", n, rem)
		}
		if n < uint64(rem) {
			return fmt.Errorf("carrier data frame has %d trailing bytes", uint64(rem)-n)
		}
		return m.deliver(id, frame[len(frame)-rem:])
	case muxFrameClose:
		if d.Remaining() != 0 {
			return fmt.Errorf("carrier close frame has %d trailing bytes", d.Remaining())
		}
		m.remoteClose(id)
		return nil
	case muxFrameOpen:
		if d.Remaining() != 0 {
			return fmt.Errorf("carrier open frame has %d trailing bytes", d.Remaining())
		}
		return m.openRemote(id)
	default:
		return fmt.Errorf("carrier frame of unknown kind %d", kind)
	}
}

// openRemote accepts a peer-opened stream ID (accepting side only; the
// server never opens streams toward the dialer).
func (m *muxConn) openRemote(id uint64) error {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return nil
	}
	if m.onStream == nil {
		m.mu.Unlock()
		return fmt.Errorf("peer opened stream %d on a dialing carrier", id)
	}
	if id <= m.maxSeen {
		m.mu.Unlock()
		return fmt.Errorf("peer re-opened stream %d (highest seen %d)", id, m.maxSeen)
	}
	if len(m.streams) >= maxMuxStreams {
		m.mu.Unlock()
		return fmt.Errorf("peer exceeded %d live streams", maxMuxStreams)
	}
	m.maxSeen = id
	st := newMuxStream(m, id)
	m.streams[id] = st
	onStream := m.onStream
	m.mu.Unlock()
	// Synchronous: the accepting side must account the session before
	// any of its bytes are readable, so a quiesce barrier that observed
	// the initiator's result also observes this stream.
	onStream(st)
	return nil
}

// deliver routes a data chunk to its stream. Frames for a forgotten
// (closed) stream are dropped; data for an ID never announced by an
// open frame is a protocol violation.
func (m *muxConn) deliver(id uint64, data []byte) error {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return nil
	}
	st := m.streams[id]
	if st == nil {
		if m.onStream == nil {
			// Dialing side: the peer cannot invent streams. An ID below
			// nextID is a forgotten (closed) stream — late frames are
			// dropped; anything else is a peer-invented stream.
			if id >= m.nextID {
				m.mu.Unlock()
				return fmt.Errorf("peer opened stream %d on a dialing carrier", id)
			}
			m.mu.Unlock()
			return nil
		}
		if id <= m.maxSeen {
			// Forgotten stream; drop the late frame.
			m.mu.Unlock()
			return nil
		}
		m.mu.Unlock()
		return fmt.Errorf("data frame for unopened stream %d", id)
	}
	m.mu.Unlock()
	return st.push(data)
}

// remoteClose marks the peer's half of a stream closed. Unknown IDs
// (forgotten streams, or a hostile close-before-data) are ignored.
func (m *muxConn) remoteClose(id uint64) {
	m.mu.Lock()
	st := m.streams[id]
	m.mu.Unlock()
	if st != nil {
		st.closeRemote()
	}
}

// muxStream is one multiplexed session's byte stream: an io.ReadWriter
// a netproto.Wire wraps exactly as it would a dedicated connection.
type muxStream struct {
	m  *muxConn
	id uint64
	// out holds the owner's encoded outbound frames until its turn ends
	// (Flush). Only the owner goroutine touches it, so it needs no lock;
	// nil until the first frame, and returned to stagedPool on close.
	out *[]byte
	// held keeps Read from flushing until the owner next writes. A
	// responder holds its accept (holdAccept): the initiator pipelines
	// its opening frames behind the hello and never waits on the accept
	// alone, so the accept can always leave with the first reply — and
	// does, whether or not the opening flight has fully arrived when the
	// responder first reads. Owner-only, like out.
	held bool

	mu           sync.Mutex
	cond         *sync.Cond
	buf          bytes.Buffer // undelivered inbound bytes
	err          error        // terminal stream error (carrier death, timeout)
	localClosed  bool
	remoteClosed bool
	timer        *time.Timer // session deadline
}

func newMuxStream(m *muxConn, id uint64) *muxStream {
	st := &muxStream{m: m, id: id}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// setTimeout arms the stream's session deadline: when it fires, every
// blocked and subsequent operation fails. Streams cannot use the
// shared connection's deadline — it would sever every co-muxed
// session.
func (st *muxStream) setTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	st.mu.Lock()
	st.timer = time.AfterFunc(d, func() {
		st.fail(fmt.Errorf("session: mux stream %d: session timeout after %v", st.id, d))
	})
	st.mu.Unlock()
}

// fail marks the stream dead with err, waking blocked readers.
func (st *muxStream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	if st.timer != nil {
		st.timer.Stop()
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// push appends an inbound chunk (called from the carrier read loop).
// Data for a failed stream is dropped — the peer doesn't know yet;
// data after the peer's own close, or past the buffer cap, is a
// protocol violation that kills the carrier.
func (st *muxStream) push(data []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil || st.localClosed {
		return nil
	}
	if st.remoteClosed {
		return fmt.Errorf("data on stream %d after its close", st.id)
	}
	if st.buf.Len()+len(data) > maxMuxBuffer {
		return fmt.Errorf("stream %d exceeded %d buffered bytes", st.id, maxMuxBuffer)
	}
	st.buf.Write(data)
	st.cond.Broadcast()
	return nil
}

// closeRemote marks the peer's half closed: reads drain the buffer and
// then return io.EOF.
func (st *muxStream) closeRemote() {
	st.mu.Lock()
	st.remoteClosed = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// Read implements io.Reader over the stream's inbound buffer. An
// owner about to block has ended its turn, so Read first flushes the
// staged frames the peer is waiting for; with inbound data already
// buffered it keeps them staged.
func (st *muxStream) Read(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.buf.Len() > 0 {
			return st.buf.Read(p)
		}
		if st.err != nil {
			return 0, st.err
		}
		if st.localClosed {
			return 0, errMuxStreamClosed
		}
		if st.staged() && !st.held {
			st.mu.Unlock()
			err := st.Flush()
			st.mu.Lock()
			if err != nil {
				return 0, err
			}
			continue
		}
		if st.remoteClosed {
			return 0, io.EOF
		}
		st.cond.Wait()
	}
}

// Write implements io.Writer: one call becomes one carrier data frame
// (netproto.Wire writes exactly one frame per call, preserving frame
// boundaries through the mux), staged until the turn ends.
func (st *muxStream) Write(p []byte) (int, error) {
	st.mu.Lock()
	err := st.err
	if err == nil && st.localClosed {
		err = errMuxStreamClosed
	}
	st.mu.Unlock()
	if err != nil {
		return 0, err
	}
	st.held = false
	st.stage(muxFrameData, p)
	if len(*st.out) >= maxMuxStaged {
		if err := st.Flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// holdAccept keeps the staged accept from ending the responder's turn
// on its own (see held).
func (st *muxStream) holdAccept() { st.held = true }

// staged reports whether the owner has frames waiting to be written.
func (st *muxStream) staged() bool { return st.out != nil && len(*st.out) > 0 }

// stage appends one carrier frame to the owner's outbound buffer.
func (st *muxStream) stage(kind uint64, data []byte) {
	if st.out == nil {
		st.out = stagedPool.Get().(*[]byte)
	}
	*st.out = appendMuxFrame(*st.out, st.id, kind, data)
}

// Flush writes the staged frames in one carrier write; netproto.Wire's
// Flush reaches it, for a handler that sends and then waits on
// something other than this stream. A failed stream drops them. Only
// the owner goroutine may call it.
func (st *muxStream) Flush() error {
	if !st.staged() {
		return nil
	}
	st.mu.Lock()
	err := st.err
	st.mu.Unlock()
	if err == nil {
		err = st.m.write(*st.out)
	}
	*st.out = (*st.out)[:0]
	return err
}

// closeMode says how a stream's local close reaches the peer.
type closeMode int

const (
	// closeNow writes a close frame at once, behind any staged frames.
	closeNow closeMode = iota
	// closeDeferred sends the close frame with the staged frames, or,
	// when none are staged, leaves it in pend for the carrier's next
	// write.
	closeDeferred
	// closeSilent flushes the staged frames and sends no close frame.
	closeSilent
)

// Close ends the local half of the stream: staged frames and a close
// frame go out in one write (best effort — a dead carrier already told
// the peer), the deadline timer stops, and the carrier forgets the
// stream. Error exits use it, so a peer blocked mid-protocol is
// released now rather than at its deadline. Idempotent.
func (st *muxStream) Close() error { return st.close(closeNow) }

// closeClean ends a clean initiator exit. Its close frame rides the
// last staged frames; when nothing is staged — the session ended on a
// read — the responder has already sent its terminal frame and needs
// no close, so the frame waits for the carrier's next write instead of
// costing one of its own. The error is the flush's: a final frame that
// never left fails the session.
func (st *muxStream) closeClean() error { return st.close(closeDeferred) }

// closeQuiet ends the local half without announcing it, after flushing
// whatever is staged. Responders use it on clean session exits: their
// protocol's terminal frame has been sent, and the initiator closes its
// own half — a spontaneous close frame here would be the carrier's only
// responder write outside a turn, racing the initiator's next stream's
// traffic on the shared connection and perturbing the byte-offset
// ordering deterministic fault injection keys on.
func (st *muxStream) closeQuiet() { st.close(closeSilent) } //nolint:errcheck

func (st *muxStream) close(mode closeMode) error {
	st.mu.Lock()
	if st.localClosed {
		st.mu.Unlock()
		return nil
	}
	st.localClosed = true
	if st.timer != nil {
		st.timer.Stop()
	}
	dead := st.err != nil
	st.cond.Broadcast()
	st.mu.Unlock()
	var err error
	if !dead {
		switch {
		case mode == closeSilent:
		case mode == closeDeferred && !st.staged():
			st.m.deferClose(st.id)
		default:
			st.stage(muxFrameClose, nil)
		}
		err = st.Flush()
	}
	if st.out != nil {
		*st.out = (*st.out)[:0]
		stagedPool.Put(st.out)
		st.out = nil
	}
	st.m.forget(st)
	return err
}

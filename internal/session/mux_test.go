package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// recConn wraps a net.Conn and records every byte the client writes, so
// tests can compare wire images across negotiation paths.
type recConn struct {
	net.Conn
	rec *recorded
}

type recorded struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recorded) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

func (c recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.mu.Lock()
	c.rec.buf.Write(p[:n])
	c.rec.mu.Unlock()
	return n, err
}

// recTransport dials through the real network but returns recording
// connections, in dial order.
type recTransport struct {
	mu    sync.Mutex
	conns []*recorded
}

func (t *recTransport) Listen(network, addr string) (net.Listener, error) {
	return net.Listen(network, addr)
}

func (t *recTransport) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	rec := &recorded{}
	t.mu.Lock()
	t.conns = append(t.conns, rec)
	t.mu.Unlock()
	return recConn{Conn: conn, rec: rec}, nil
}

func (t *recTransport) dialed() []*recorded {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*recorded(nil), t.conns...)
}

// TestMuxCarrierHelloGolden pins the v3 carrier hello to its exact wire
// image: one frame of magic "RSYN" plus uvarint version 3, nothing
// else. The bytes are asserted literally rather than via the encoder.
func TestMuxCarrierHelloGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := netproto.SendHello(netproto.NewWire(&buf), netproto.Hello{Mux: true}); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x00, 0x00, 0x00, 0x05, // frame length 5
		0x52, 0x53, 0x59, 0x4e, // "RSYN"
		0x03, // version 3
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("carrier hello = %x, want %x", buf.Bytes(), want)
	}
}

// muxDataPayloads parses a recorded carrier byte stream (carrier hello
// frame, then mux frames) and returns the concatenated data payloads of
// the given stream.
func muxDataPayloads(t *testing.T, raw []byte, stream uint64) []byte {
	t.Helper()
	var out bytes.Buffer
	// Skip the carrier hello frame.
	if len(raw) < 4 {
		t.Fatalf("carrier stream too short: %d bytes", len(raw))
	}
	n := binary.BigEndian.Uint32(raw)
	raw = raw[4+n:]
	for len(raw) > 0 {
		if len(raw) < 4 {
			t.Fatalf("truncated mux frame header: %d bytes left", len(raw))
		}
		n := binary.BigEndian.Uint32(raw)
		frame := raw[4 : 4+n]
		raw = raw[4+n:]
		d := transport.NewDecoder(frame)
		id, err := d.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		kind, err := d.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		if kind != muxFrameData || id != stream {
			continue
		}
		if _, err := d.ReadUvarint(); err != nil {
			t.Fatal(err)
		}
		out.Write(frame[len(frame)-d.Remaining():])
	}
	return out.Bytes()
}

// TestMuxStreamBytesMatchPlainSession is the carrier golden test: the
// concatenated data payloads of a multiplexed session's stream must be
// byte-identical to the byte stream a dedicated Dialer connection
// carries for the same session — mux framing adds routing, never
// rewrites.
func TestMuxStreamBytesMatchPlainSession(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := l.Addr().String()

	// Dedicated-connection session, recorded.
	plainTr := &recTransport{}
	h1 := gapHandler(f)
	if _, err := (Dialer{Addr: addr, Transport: plainTr}).Do(h1); err != nil {
		t.Fatal(err)
	}
	if err := checkGap(f, h1); err != nil {
		t.Fatal(err)
	}

	// The same session through a pooled carrier, recorded.
	muxTr := &recTransport{}
	pool := &MuxPool{Transport: muxTr}
	defer pool.Close()
	h2 := gapHandler(f)
	if _, err := pool.Do(addr, "", h2); err != nil {
		t.Fatal(err)
	}
	if err := checkGap(f, h2); err != nil {
		t.Fatal(err)
	}

	plainConns := plainTr.dialed()
	muxConns := muxTr.dialed()
	if len(plainConns) != 1 || len(muxConns) != 1 {
		t.Fatalf("dial counts: plain %d, mux %d (want 1 and 1)", len(plainConns), len(muxConns))
	}
	plainBytes := plainConns[0].bytes()
	streamBytes := muxDataPayloads(t, muxConns[0].bytes(), 1)
	if !bytes.Equal(streamBytes, plainBytes) {
		t.Fatalf("stream payload (%d bytes) != plain session stream (%d bytes)",
			len(streamBytes), len(plainBytes))
	}
}

// TestMuxResultStatsMatchSession: a handler run through the pool reads
// its session's traffic through transport.ConnStats, as it does over a
// dedicated connection, so the stats in its result equal the session
// tally Do returns.
func TestMuxResultStatsMatchSession(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := l.Addr().String()
	pool := &MuxPool{}
	defer pool.Close()

	eh := netproto.NewEMDReceiver(f.emdParams, f.emdSB)
	st, err := pool.Do(addr, "", eh)
	if err != nil {
		t.Fatal(err)
	}
	if eh.Result.Stats != st {
		t.Errorf("emd result stats %v, session %v", eh.Result.Stats, st)
	}
	gh := gapHandler(f)
	if st, err = pool.Do(addr, "", gh); err != nil {
		t.Fatal(err)
	}
	if gh.Result.Stats != st {
		t.Errorf("gap result stats %v, session %v", gh.Result.Stats, st)
	}
}

// refuseFirst drops the first connection it accepts without answering
// — what a dialer sees when a peer garbles or refuses carrier
// negotiation — and hands every later one to the server.
type refuseFirst struct {
	net.Listener
	refused bool
}

func (l *refuseFirst) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.refused {
			return c, err
		}
		l.refused = true
		c.Close()
	}
}

// TestMuxFailedNegotiationRedials pins what a failed carrier
// negotiation costs: the session that needed the carrier fails, and the
// next session to the same address dials a fresh carrier and rides it —
// the pool never downgrades a peer to per-session dialing.
func TestMuxFailedNegotiationRedials(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(&refuseFirst{Listener: l}) //nolint:errcheck
	defer srv.Close()
	addr := l.Addr().String()

	tr := &recTransport{}
	pool := &MuxPool{Transport: tr}
	defer pool.Close()
	if _, err := pool.Do(addr, "", gapHandler(f)); err == nil {
		t.Fatal("session over a refused carrier negotiation succeeded")
	}
	h := gapHandler(f)
	if _, err := pool.Do(addr, "", h); err != nil {
		t.Fatalf("session after the refused negotiation: %v", err)
	}
	if err := checkGap(f, h); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Dials != 2 || st.Sessions != 2 || st.Reuses != 0 {
		t.Fatalf("pool stats = %v, want 2 dials, 2 sessions, 0 reuses", st)
	}
	conns := tr.dialed()
	if len(conns) != 2 {
		t.Fatalf("pool dialed %d conns, want 2", len(conns))
	}
	// The re-dialed connection is a carrier, not a plain session: it
	// opens with the bare carrier hello and carries the session as a
	// stream.
	var hello bytes.Buffer
	if err := netproto.SendHello(netproto.NewWire(&hello), netproto.Hello{Mux: true}); err != nil {
		t.Fatal(err)
	}
	raw := conns[1].bytes()
	if !bytes.HasPrefix(raw, hello.Bytes()) {
		t.Fatalf("re-dialed conn opens with %x, want the carrier hello %x", raw[:min(len(raw), 16)], hello.Bytes())
	}
	if len(muxDataPayloads(t, raw, 1)) == 0 {
		t.Fatal("re-dialed carrier carried no session stream")
	}
}

// TestMuxPoolReuseAndRedial covers the carrier lifecycle: sequential
// sessions share one dial, a severed carrier is replaced on the next
// session, and the stats ledger tracks it.
func TestMuxPoolReuseAndRedial(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := l.Addr().String()

	pool := &MuxPool{}
	defer pool.Close()
	for i := 0; i < 4; i++ {
		h := gapHandler(f)
		if _, err := pool.Do(addr, "", h); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := checkGap(f, h); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Dials != 1 || st.Reuses != 3 || st.Sessions != 4 {
		t.Fatalf("after reuse: stats = %+v, want 1 dial, 3 reuses, 4 sessions", st)
	}

	// Sever the pooled carrier out from under the pool; the next session
	// must notice the dead carrier and re-dial instead of failing.
	pool.mu.Lock()
	for _, e := range pool.entries {
		e.mu.Lock()
		e.m.fail(errors.New("test: simulated carrier cut"))
		e.mu.Unlock()
	}
	pool.mu.Unlock()

	h := gapHandler(f)
	if _, err := pool.Do(addr, "", h); err != nil {
		t.Fatalf("post-cut session: %v", err)
	}
	if err := checkGap(f, h); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Dials != 2 || st.Sessions != 5 {
		t.Fatalf("after cut: stats = %+v, want 2 dials, 5 sessions", st)
	}
}

// TestMuxConcurrentStreams drives many simultaneous sessions through
// one pool: they multiplex over a single carrier per address, all
// succeed, and the server's ledger accounts every stream.
func TestMuxConcurrentStreams(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{MaxSessions: 8})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := l.Addr().String()

	pool := &MuxPool{}
	defer pool.Close()
	const sessions = 12
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := gapHandler(f)
			if _, err := pool.Do(addr, "", h); err != nil {
				errs[i] = err
				return
			}
			errs[i] = checkGap(f, h)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Dials != 1 || st.Sessions != sessions {
		t.Errorf("stats = %+v, want 1 dial, %d sessions", st, sessions)
	}
	// Close waits for server-side accounting of every stream (the busy
	// ledger counts streams, not connections).
	srv.Close()
	if got := srv.Served(); got != sessions {
		t.Errorf("served = %d, want %d (failed = %d)", got, sessions, srv.Failed())
	}
}

// TestMuxShutdownWithIdleCarrier: a warm but idle carrier must not hold
// up graceful shutdown — carriers are unbilled after negotiation, so
// Quiesce sees zero in-flight session units.
func TestMuxShutdownWithIdleCarrier(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	pool := &MuxPool{}
	defer pool.Close()
	if err := pool.Warm(addr); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with idle carrier: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown blocked on an idle pooled carrier")
	}
}

// TestMuxNestedCarrierHelloRejected: a carrier hello inside a stream is
// a protocol violation; the server answers StatusMuxUnavailable instead
// of recursing.
func TestMuxNestedCarrierHelloRejected(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := netproto.NewWire(conn)
	if err := netproto.InitiateMux(w); err != nil {
		t.Fatal(err)
	}
	w.Release()
	m := newMuxConn(conn, nil)
	go m.readLoop()
	st, err := m.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sw := netproto.NewWire(st)
	defer sw.Release()
	if err := netproto.SendHello(sw, netproto.Hello{Mux: true}); err != nil {
		t.Fatal(err)
	}
	status, _, err := netproto.ReadAccept(sw)
	if err != nil {
		t.Fatal(err)
	}
	if status != netproto.StatusMuxUnavailable {
		t.Fatalf("nested carrier hello: status %v, want %v", status, netproto.StatusMuxUnavailable)
	}
}

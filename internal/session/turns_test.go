package session

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/transport"
)

// writeLog records the bytes of every conn write, per side: "cli" for
// dialed connections, "srv" for accepted ones.
type writeLog struct {
	mu     sync.Mutex
	writes map[string][][]byte
}

func (l *writeLog) add(side string, p []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writes == nil {
		l.writes = make(map[string][][]byte)
	}
	l.writes[side] = append(l.writes[side], append([]byte(nil), p...))
}

// take returns the side's writes since the last take.
func (l *writeLog) take(side string) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes[side]
	delete(l.writes, side)
	return w
}

// loggingTransport is the real network, with every connection's writes
// logged.
type loggingTransport struct{ log *writeLog }

func (t loggingTransport) Listen(network, addr string) (net.Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return loggingListener{l, t.log}, nil
}

func (t loggingTransport) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return loggingConn{c, t.log, "cli"}, nil
}

type loggingListener struct {
	net.Listener
	log *writeLog
}

func (l loggingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggingConn{c, l.log, "srv"}, nil
}

type loggingConn struct {
	net.Conn
	log  *writeLog
	side string
}

// Write logs before writing, so a write the peer has read is already
// on record.
func (c loggingConn) Write(p []byte) (int, error) {
	c.log.add(c.side, p)
	return c.Conn.Write(p)
}

// muxFrameHeads parses one carrier write into its frames' (stream,
// kind) pairs.
func muxFrameHeads(t *testing.T, w []byte) [][2]uint64 {
	t.Helper()
	var heads [][2]uint64
	for len(w) > 0 {
		if len(w) < 4 {
			t.Fatalf("write ends in a %d-byte fragment", len(w))
		}
		n := 4 + int(binary.BigEndian.Uint32(w))
		if n > len(w) {
			t.Fatalf("frame of %d bytes overruns the write's %d", n, len(w))
		}
		d := transport.NewDecoder(w[4:n])
		id, err := d.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		kind, err := d.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, [2]uint64{id, kind})
		w = w[n:]
	}
	return heads
}

// TestMuxWritesPerTurn pins the carrier's socket writes to protocol
// turns: a probe (one request, one reply) is one write each way, its
// clean close rides the carrier's next write, and a repair session is
// one write per turn however many IBLT attempts it takes.
func TestMuxWritesPerTurn(t *testing.T) {
	f := newFixture(t)
	log := &writeLog{}
	tr := loggingTransport{log}
	cfg := live.Config{Sync: &live.SyncConfig{Seed: 99}}
	space := metric.HammingCube(32)
	served, err := live.NewSet(cfg, randomPoints(space, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	local, err := live.NewSet(cfg, randomPoints(space, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	repairFactory, err := netproto.NewRepairResponderFactory(served)
	if err != nil {
		t.Fatal(err)
	}
	probeFactory, err := netproto.NewProbeResponderFactory(served)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(f, Config{Transport: tr}, probeFactory, repairFactory)
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := &MuxPool{Transport: tr}
	defer pool.Close()
	addr := l.Addr().String()
	if err := pool.Warm(addr); err != nil {
		t.Fatal(err)
	}
	if c, s := len(log.take("cli")), len(log.take("srv")); c != 1 || s != 1 {
		t.Fatalf("carrier negotiation took %d/%d writes, want 1/1", c, s)
	}

	probe, err := netproto.NewProbeInitiator(local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Do(addr, "", probe); err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	cli, resp := log.take("cli"), log.take("srv")
	t.Logf("probe: %d initiator writes, %d responder writes", len(cli), len(resp))
	if len(cli) != 1 || len(resp) != 1 {
		t.Fatalf("probe took %d initiator and %d responder writes, want 1 and 1", len(cli), len(resp))
	}
	for _, h := range muxFrameHeads(t, cli[0]) {
		if h[1] == muxFrameClose {
			t.Fatalf("probe's own write carries a close frame for stream %d", h[0])
		}
	}

	rh, err := netproto.NewRepairInitiator(local, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pool.Do(addr, "", rh)
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	if rh.Sent != 9 || rh.Received != 12 || local.IDFingerprint() != served.IDFingerprint() {
		t.Fatalf("repair sent %d and received %d points (want 9 and 12); converged %v",
			rh.Sent, rh.Received, local.IDFingerprint() == served.IDFingerprint())
	}
	cli, resp = log.take("cli"), log.take("srv")
	heads := muxFrameHeads(t, cli[0])
	if len(heads) < 2 || heads[0] != [2]uint64{1, muxFrameClose} || heads[1] != [2]uint64{2, muxFrameOpen} {
		t.Fatalf("repair's first write opens with frames %v, want the probe's close (1,%d) then its own open (2,%d)",
			heads, muxFrameClose, muxFrameOpen)
	}
	// Turns: the initiator's opening (hello, hint, strata), one
	// responder table per attempt, an initiator answer to each — false
	// for a stall, the ack for the table that peeled — and the
	// responder's points. The accept rides the first table.
	tables := st.MsgsBtoA - 2
	t.Logf("repair: %d tables, %d initiator writes, %d responder writes", tables, len(cli), len(resp))
	if len(cli) != tables+1 || len(resp) != tables+1 {
		t.Fatalf("repair with %d tables took %d initiator and %d responder writes, want %d and %d",
			tables, len(cli), len(resp), tables+1, tables+1)
	}
}

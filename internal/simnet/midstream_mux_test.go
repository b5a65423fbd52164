package simnet_test

import (
	"encoding/binary"
	gonet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gap"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/simnet/scenario"
	"repro/internal/workload"
)

// The mid-stream failure matrix, ported to pooled RSYN v3 carriers: a
// shared multiplexed connection is severed at every carrier frame
// boundary (and mid-frame) of either direction's stream via simnet's
// drop-at-offset fault. A mux
// stream writes a whole turn's frames at once, so the boundaries come
// from the bytes of each write, split at their length prefixes, not
// from the write sizes alone. The
// session riding the carrier at the cut must fail with the canonical
// cut error (never a hang, a false success, or an unrelated EOF), a cut
// during carrier negotiation included; the pool must re-dial a carrier
// so a follow-up session always succeeds, the virtual network must end
// with zero leaked endpoints, and the poisoned-pool canary must pass.

// The gap workload every matrix session runs: the server sends its
// points, and each client receives against its own.
var muxGapParams = gap.Params{Space: metric.HammingCube(128), N: 12, R1: 2, R2: 32, Seed: 4}

func muxGapPoints(seed uint64) metric.PointSet {
	return workload.RandomSet(muxGapParams.Space, 12, rng.New(seed))
}

func muxGapSender() netproto.Handler { return netproto.NewGapSender(muxGapParams, muxGapPoints(23)) }

func muxGapReceiver() *netproto.GapReceiver {
	return netproto.NewGapReceiver(muxGapParams, muxGapPoints(24))
}

// muxGapUncovered counts the server points a receiver's reconciled set
// does not cover within r2 (Theorem 4.2 allows none).
func muxGapUncovered(h *netproto.GapReceiver) int {
	n := 0
	for _, pt := range muxGapPoints(23) {
		if dist, _ := h.Result.SPrime.MinDistanceTo(muxGapParams.Space, pt); dist > muxGapParams.R2 {
			n++
		}
	}
	return n
}

// writeLog records the bytes of every write made on the connections
// of the transports it wraps, in call order per direction: chunks[0]
// holds the dialer's writes, chunks[1] the listener's.
type writeLog struct {
	mu     sync.Mutex
	chunks [2][][]byte
}

type loggedTransport struct {
	session.Transport
	log *writeLog
}

func (t loggedTransport) Listen(network, addr string) (gonet.Listener, error) {
	l, err := t.Transport.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return loggedListener{l, t.log}, nil
}

func (t loggedTransport) DialTimeout(network, addr string, timeout time.Duration) (gonet.Conn, error) {
	c, err := t.Transport.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return loggedConn{c, t.log, 0}, nil
}

type loggedListener struct {
	gonet.Listener
	log *writeLog
}

func (l loggedListener) Accept() (gonet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{c, l.log, 1}, nil
}

type loggedConn struct {
	gonet.Conn
	log *writeLog
	dir int // index into writeLog.chunks
}

// Write logs p before passing it on: one end's writes are sequential,
// so call order is simnet's accounting order for that direction
// (muxFrameSizes checks it).
func (c loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.chunks[c.dir] = append(c.log.chunks[c.dir], append([]byte(nil), p...))
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// muxFrameSizes splits one direction's logged writes into their
// length-prefixed frames — carrier negotiation frames, then mux frames
// — and returns the frame sizes in wire order. The logged write sizes
// must equal simnet's recorded chunks, or the log is not the wire
// order.
func muxFrameSizes(t *testing.T, logged [][]byte, chunks []int) []int {
	t.Helper()
	if len(logged) != len(chunks) {
		t.Fatalf("logged %d writes, simnet recorded %d chunks", len(logged), len(chunks))
	}
	var frames []int
	for i, c := range logged {
		if len(c) != chunks[i] {
			t.Fatalf("write %d: logged %d bytes, simnet recorded %d", i, len(c), chunks[i])
		}
		for len(c) > 0 {
			if len(c) < 4 {
				t.Fatalf("write %d ends in a %d-byte fragment", i, len(c))
			}
			n := 4 + int(binary.BigEndian.Uint32(c))
			if n > len(c) {
				t.Fatalf("write %d: frame of %d bytes overruns the write's %d", i, n, len(c))
			}
			frames = append(frames, n)
			c = c[n:]
		}
	}
	return frames
}

// muxMatrixRun drives count sequential gap sessions through one pool
// over net, then a recovery session; it returns the per-session errors
// (recovery excluded), the pool, and the server. A non-nil log records
// every write on both ends.
func muxMatrixRun(t *testing.T, net *simnet.Network, count int, log *writeLog) ([]error, *session.MuxPool, *session.Server) {
	t.Helper()
	var srvT, cliT session.Transport = net.Host("srv"), net.Host("cli")
	if log != nil {
		srvT, cliT = loggedTransport{srvT, log}, loggedTransport{cliT, log}
	}
	srv := session.NewServer(session.Config{
		Transport:      srvT,
		SessionTimeout: 20 * time.Second,
		Resolver:       netproto.Handlers(muxGapSender),
	})
	if _, err := srv.Listen("sim", "srv:1"); err != nil {
		t.Fatal(err)
	}
	pool := &session.MuxPool{
		Network:        "sim",
		Transport:      cliT,
		DialTimeout:    5 * time.Second,
		SessionTimeout: 20 * time.Second,
	}
	errs := make([]error, count)
	for i := range errs {
		_, errs[i] = pool.Do("srv:1", "", muxGapReceiver())
	}
	return errs, pool, srv
}

// muxMatrixTeardown closes pool and server and requires the network to
// drain to zero open endpoints.
func muxMatrixTeardown(t *testing.T, net *simnet.Network, pool *session.MuxPool, srv *session.Server, ctx string) {
	t.Helper()
	pool.Close()                  //nolint:errcheck
	srv.Shutdown(5 * time.Second) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for net.OpenConns() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if open := net.OpenConns(); open != 0 {
		t.Fatalf("%s: %d connection endpoints leaked", ctx, open)
	}
}

func TestMidStreamMuxFailureMatrix(t *testing.T) {
	// Clean run: discover the carrier's frame boundaries. Two sequential
	// sessions share one carrier, so the frame list covers negotiation,
	// both sessions' streams, and the inter-session idle boundary.
	cleanNet := simnet.New(1)
	log := &writeLog{}
	errs, pool, srv := muxMatrixRun(t, cleanNet, 2, log)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean session %d failed: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Dials != 1 || st.Sessions != 2 {
		t.Fatalf("clean run: pool stats %v, want 1 dial, 2 sessions", st.String())
	}
	muxMatrixTeardown(t, cleanNet, pool, srv, "clean run")
	for dir, hosts := range [2][2]string{{"cli", "srv"}, {"srv", "cli"}} {
		from, to := hosts[0], hosts[1]
		conns := cleanNet.ConnWrites(from, to)
		if len(conns) != 1 || len(conns[0]) < 2 {
			t.Fatalf("clean run recorded %d conns (%s->%s chunks: %v)", len(conns), from, to, conns)
		}
		frames := muxFrameSizes(t, log.chunks[dir], conns[0])
		offsets := cutOffsets(frames)
		t.Logf("mux carrier %s->%s: %d frames in %d writes, cutting at %d offsets %v", from, to, len(frames), len(conns[0]), len(offsets), offsets)
		for _, off := range offsets {
			muxMatrixCut(t, from, to, off)
		}
	}
}

// muxMatrixCut runs two pooled sessions with from's carrier stream to
// to severed at off, then requires canonical cut errors, a recovery
// session over a re-dialed carrier, no leaked endpoints, and a clean
// pooled session on poisoned buffer pools.
func muxMatrixCut(t *testing.T, from, to string, off int64) {
	t.Helper()
	net := simnet.New(uint64(2 + off))
	net.DropAfter(from, to, off)
	errs, pool, srv := muxMatrixRun(t, net, 2, nil)
	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		// Whatever layer surfaces the failure, the root cause must be
		// simnet's canonical cut error — not a bare EOF or a pipe
		// error that would make a replayed trace ambiguous.
		if !strings.Contains(err.Error(), "drop-at-offset") {
			t.Fatalf("cut %s->%s at offset %d: session %d failed without the canonical cut error: %v", from, to, off, i, err)
		}
	}
	// Recovery: the fault is spent, so one more session through the
	// same pool must succeed over a re-dialed carrier.
	h := muxGapReceiver()
	if _, err := pool.Do("srv:1", "", h); err != nil {
		t.Fatalf("cut %s->%s at offset %d: recovery session failed: %v", from, to, off, err)
	}
	if n := muxGapUncovered(h); n != 0 {
		t.Fatalf("cut %s->%s at offset %d: recovery session left %d server points uncovered", from, to, off, n)
	}
	if st := pool.Stats(); failed == 0 && st.Dials < 2 {
		// No session failed: legal only when the cut landed on an idle
		// carrier or its final close frame, in which case the recovery
		// session must have re-dialed a fresh carrier.
		t.Fatalf("cut %s->%s at offset %d: no session failed, yet the pool did not re-dial (%v)", from, to, off, st)
	}
	muxMatrixTeardown(t, net, pool, srv, "post-cut")

	// Canary: poison pooled encoders and require a clean pooled session
	// to still succeed — the failed streams released their pooled
	// buffers instead of retaining or double-recycling them.
	release := scenario.PoisonPool(8, 2048)
	verifyNet := simnet.New(uint64(3 + off))
	verrs, vpool, vsrv := muxMatrixRun(t, verifyNet, 1, nil)
	if verrs[0] != nil {
		t.Fatalf("cut %s->%s at offset %d: clean session after poisoned pool failed: %v", from, to, off, verrs[0])
	}
	muxMatrixTeardown(t, verifyNet, vpool, vsrv, "canary")
	release()
}

// TestMuxCutFailsInFlightStreams cuts a carrier while several sessions
// are genuinely concurrent on it: every session that fails must fail
// with the canonical cut error, at least one must notice the cut (the
// offset lands mid-carrier, past negotiation), and the pool must still
// serve a recovery session afterwards.
func TestMuxCutFailsInFlightStreams(t *testing.T) {
	// Discover the length of the client's carrier stream from a
	// sequential clean run.
	cleanNet := simnet.New(1)
	errs, pool, srv := muxMatrixRun(t, cleanNet, 2, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean session %d failed: %v", i, err)
		}
	}
	muxMatrixTeardown(t, cleanNet, pool, srv, "clean run")
	var total int64
	for _, w := range cleanNet.ConnWrites("cli", "srv")[0] {
		total += int64(w)
	}

	net := simnet.New(7)
	net.DropAfter("cli", "srv", total/2)
	srv2 := session.NewServer(session.Config{
		Transport:      net.Host("srv"),
		SessionTimeout: 20 * time.Second,
		Resolver:       netproto.Handlers(muxGapSender),
	})
	if _, err := srv2.Listen("sim", "srv:1"); err != nil {
		t.Fatal(err)
	}
	pool2 := &session.MuxPool{
		Network:        "sim",
		Transport:      net.Host("cli"),
		DialTimeout:    5 * time.Second,
		SessionTimeout: 20 * time.Second,
	}
	if err := pool2.Warm("srv:1"); err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	serrs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, serrs[i] = pool2.Do("srv:1", "", muxGapReceiver())
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range serrs {
		if err == nil {
			continue
		}
		failed++
		if !strings.Contains(err.Error(), "drop-at-offset") {
			t.Fatalf("concurrent session %d failed without the canonical cut error: %v", i, err)
		}
	}
	if failed == 0 && pool2.Stats().Dials < 2 {
		t.Fatalf("carrier cut mid-flight, yet no session failed and no re-dial happened (%v)", pool2.Stats())
	}
	h := muxGapReceiver()
	if _, err := pool2.Do("srv:1", "", h); err != nil {
		t.Fatalf("recovery session failed: %v", err)
	}
	if n := muxGapUncovered(h); n != 0 {
		t.Fatalf("recovery session left %d server points uncovered", n)
	}
	muxMatrixTeardown(t, net, pool2, srv2, "concurrent cut")
}

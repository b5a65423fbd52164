package session

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// testFixture bundles one deterministic workload per protocol, shared by
// server and clients the way two real deployments share Params.
type testFixture struct {
	emdParams emd.Params
	emdSA     metric.PointSet
	emdSB     metric.PointSet

	gapParams gap.Params
	gapSA     metric.PointSet
	gapSB     metric.PointSet
	gapSpace  metric.Space
}

func newFixture(t *testing.T) *testFixture {
	t.Helper()
	f := &testFixture{}

	emdSpace := metric.HammingCube(64)
	const n, k = 32, 3
	einst := workload.NewEMDInstance(emdSpace, n, k, 2, 41)
	f.emdParams = emd.DefaultParams(emdSpace, n, k, 42)
	f.emdParams.D1, f.emdParams.D2 = 2, 64
	f.emdSA, f.emdSB = einst.SA, einst.SB

	f.gapSpace = metric.HammingCube(256)
	ginst, err := workload.NewGapInstance(f.gapSpace, 24, 2, 1, 6, 64, 43)
	if err != nil {
		t.Fatal(err)
	}
	f.gapParams = gap.Params{Space: f.gapSpace, N: 27, R1: 6, R2: 64, Seed: 44}
	f.gapSA, f.gapSB = ginst.SA, ginst.SB
	return f
}

// newTestServer builds a server exposing the frozen-set protocols over
// the fixture's data.
func newTestServer(f *testFixture, cfg Config) *Server {
	srv := NewServer(cfg)
	srv.Handle(func() netproto.Handler { return netproto.NewEMDSender(f.emdParams, f.emdSA) })
	srv.Handle(func() netproto.Handler { return netproto.NewGapSender(f.gapParams, f.gapSA) })
	return srv
}

// gapHandler builds a fresh gap receiver for the shared fixture.
func gapHandler(f *testFixture) *netproto.GapReceiver {
	return netproto.NewGapReceiver(f.gapParams, f.gapSB)
}

// checkGap reports a server point the receiver's set does not cover
// within r2: the guarantee of Theorem 4.2.
func checkGap(f *testFixture, h *netproto.GapReceiver) error {
	for _, pt := range f.gapSA {
		if dist, _ := h.Result.SPrime.MinDistanceTo(f.gapSpace, pt); dist > f.gapParams.R2 {
			return fmt.Errorf("gap: uncovered point at distance %v", dist)
		}
	}
	return nil
}

// TestServerConcurrentSessions is the acceptance test for the session
// engine: one server, 9 simultaneous client sessions across two
// protocols over real TCP sockets, all results verified, aggregate
// stats consistent. Run with -race in CI.
func TestServerConcurrentSessions(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{MaxSessions: 16})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := Dialer{Addr: l.Addr().String()}

	type job func() error
	emdJob := func() error {
		h := netproto.NewEMDReceiver(f.emdParams, f.emdSB)
		if _, err := d.Do(h); err != nil {
			return err
		}
		if h.Result.Failed {
			return nil // Algorithm 1 may report failure; not a transport bug
		}
		if len(h.Result.SPrime) != len(f.emdSB) {
			return fmt.Errorf("emd: |S'B| = %d, want %d", len(h.Result.SPrime), len(f.emdSB))
		}
		if h.Result.Stats.BitsBtoA == 0 {
			return fmt.Errorf("emd: no inbound traffic recorded")
		}
		return nil
	}
	gapJob := func() error {
		h := gapHandler(f)
		if _, err := d.Do(h); err != nil {
			return err
		}
		return checkGap(f, h)
	}

	jobs := []job{emdJob, gapJob, gapJob, emdJob, gapJob, gapJob, emdJob, gapJob, gapJob}
	if len(jobs) < 8 {
		t.Fatal("need at least 8 simultaneous sessions")
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			errs[i] = j()
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}

	// A client can drain the last protocol message before the server-side
	// goroutine finishes accounting; Close waits for every session.
	srv.Close()
	if got := srv.Served(); got != uint64(len(jobs)) {
		t.Errorf("served = %d, want %d (failed = %d)", got, len(jobs), srv.Failed())
	}
	if srv.Active() != 0 {
		t.Errorf("active = %d after all sessions done", srv.Active())
	}
	total, n := srv.Stats()
	if n != len(jobs) {
		t.Errorf("aggregate folded %d sessions, want %d", n, len(jobs))
	}
	if total.TotalBits() == 0 || total.Rounds == 0 {
		t.Errorf("aggregate stats empty: %v", total)
	}
}

// TestServerSessionLimit runs more concurrent clients than MaxSessions
// allows: excess sessions must queue and still succeed.
func TestServerSessionLimit(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{MaxSessions: 2})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := Dialer{Addr: l.Addr().String()}

	const clients = 6
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = d.Do(gapHandler(f))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	srv.Close() // wait for server-side accounting before asserting
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
}

// TestServerUnixSocket exercises the unix-domain listener path.
func TestServerUnixSocket(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	sock := filepath.Join(t.TempDir(), "reconciled.sock")
	l, err := srv.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_ = l
	d := Dialer{Network: "unix", Addr: sock}
	h := netproto.NewEMDReceiver(f.emdParams, f.emdSB)
	if _, err := d.Do(h); err != nil {
		t.Fatal(err)
	}
	if !h.Result.Failed && len(h.Result.SPrime) != len(f.emdSB) {
		t.Errorf("|S'B| = %d, want %d", len(h.Result.SPrime), len(f.emdSB))
	}
}

// TestServerRejectsDigestMismatch: a client with different Params must
// be refused before protocol traffic, with a status naming the reason.
func TestServerRejectsDigestMismatch(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bad := f.gapParams
	bad.Seed++
	h := netproto.NewGapReceiver(bad, f.gapSB)
	_, err = (Dialer{Addr: l.Addr().String()}).Do(h)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("mismatched params accepted: %v", err)
	}
}

// TestServerRejectsUnknownProto: an unregistered protocol ID gets a
// clean rejection.
func TestServerRejectsUnknownProto(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = (Dialer{Addr: l.Addr().String()}).Do(&bogusHandler{})
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("unknown protocol accepted: %v", err)
	}
}

// TestServerRejectsRoleClash: the server plays EMD Alice; a client also
// initiating as Alice must get "role unavailable", not "unknown
// protocol".
func TestServerRejectsRoleClash(t *testing.T) {
	f := newFixture(t)
	srv := newTestServer(f, Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := netproto.NewEMDSender(f.emdParams, f.emdSA)
	_, err = (Dialer{Addr: l.Addr().String()}).Do(h)
	if err == nil || !strings.Contains(err.Error(), "role unavailable") {
		t.Fatalf("role clash not named: %v", err)
	}
}

// TestServerAccountsBadHello: a connection that never speaks a valid
// hello (port scanner, garbage frame) must show up consistently in
// Failed(), the Stats() session count, and the OnSession callback.
func TestServerAccountsBadHello(t *testing.T) {
	f := newFixture(t)
	var fired int
	var mu sync.Mutex
	srv := newTestServer(f, Config{OnSession: func(*Session) {
		mu.Lock()
		fired++
		mu.Unlock()
	}})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A framed payload that is not a hello (bad magic).
	conn.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}) //nolint:errcheck
	// Wait for the server to consume and reject the frame before closing:
	// the rejection closes the connection, which surfaces here as EOF.
	io.Copy(io.Discard, conn) //nolint:errcheck
	conn.Close()
	srv.Close()
	if got := srv.Failed(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if _, n := srv.Stats(); n != 1 {
		t.Errorf("stats folded %d sessions, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Errorf("OnSession fired %d times, want 1", fired)
	}
}

// closeTrackingListener records whether the server released it.
type closeTrackingListener struct {
	net.Listener
	mu     sync.Mutex
	closed bool
}

func (l *closeTrackingListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return l.Listener.Close()
}

func (l *closeTrackingListener) wasClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// TestServeAfterCloseReturnsNamedError is the regression test for the
// post-Close lifecycle: Serve on a closed server must return
// ErrServerClosed immediately AND close the listener it was handed, so
// neither a goroutine nor a socket outlives the server.
func TestServeAfterCloseReturnsNamedError(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &closeTrackingListener{Listener: inner}
	if err := srv.Serve(l); err != ErrServerClosed {
		t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
	}
	if !l.wasClosed() {
		t.Error("Serve after Close leaked the listener")
	}
	// Listen after Close must fail fast instead of binding a socket
	// whose background Serve goroutine exits immediately — before the
	// fix the caller got a live-looking listener serving nothing.
	if _, err := srv.Listen("tcp", "127.0.0.1:0"); err != ErrServerClosed {
		t.Fatalf("Listen after Close = %v, want ErrServerClosed", err)
	}
	// And an orderly post-Close state reports no terminal failure.
	if err := srv.Err(); err != nil {
		t.Errorf("Err after orderly Close = %v", err)
	}
}

type bogusHandler struct{}

func (*bogusHandler) Proto() netproto.Proto         { return netproto.Proto(99) }
func (*bogusHandler) Role() netproto.Role           { return netproto.RoleAlice }
func (*bogusHandler) Digest() uint64                { return 0xdead }
func (*bogusHandler) Run(conn transport.Conn) error { return nil }

// TestOnSessionCallback checks typed results are harvestable from the
// server side via the Session abstraction.
func TestOnSessionCallback(t *testing.T) {
	f := newFixture(t)
	var mu sync.Mutex
	var seen []*Session
	srv := newTestServer(f, Config{OnSession: func(s *Session) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	}})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := netproto.NewGapReceiver(f.gapParams, f.gapSB)
	if _, err := (Dialer{Addr: l.Addr().String()}).Do(h); err != nil {
		t.Fatal(err)
	}
	srv.Close() // wait for the server-side session to finish
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("OnSession fired %d times", len(seen))
	}
	s := seen[0]
	if s.Proto() != netproto.ProtoGap || s.Err() != nil || s.ID() == 0 {
		t.Errorf("session: proto=%v err=%v id=%d", s.Proto(), s.Err(), s.ID())
	}
	gs, ok := s.Handler().(*netproto.GapSender)
	if !ok {
		t.Fatalf("handler type %T", s.Handler())
	}
	if len(gs.Report.TA) != len(h.Result.TA) {
		t.Errorf("server sent %d elements, client received %d", len(gs.Report.TA), len(h.Result.TA))
	}
	if s.Stats().TotalBits() == 0 {
		t.Error("session stats empty")
	}
}

package session

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/transport"
)

func randomPoints(space metric.Space, n int, seed uint64) metric.PointSet {
	src := rng.New(seed)
	out := make(metric.PointSet, n)
	for i := range out {
		pt := make(metric.Point, space.Dim)
		for j := range pt {
			pt[j] = int32(src.Uint64() % uint64(space.Delta+1))
		}
		out[i] = pt
	}
	return out
}

// newStoreServer builds a store hosting a default set and two named
// sets (all Sync-enabled, same seed), served via the resolver.
func newStoreServer(t *testing.T, cfg Config) (*Server, *store.Store, net.Listener) {
	t.Helper()
	st := store.New()
	space := metric.HammingCube(32)
	for i, name := range []string{"", "tenant-a", "tenant-b"} {
		cfg := live.Config{Sync: &live.SyncConfig{Seed: 99}}
		if _, err := st.Create(name, cfg, randomPoints(space, 10+5*i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Resolver = netproto.StoreResolver(st)
	srv := NewServer(cfg)
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, st, l
}

// probeVia runs one probe session against the named set and returns the
// session error.
func probeVia(t *testing.T, addr, set string, local *live.Set) error {
	t.Helper()
	probe, err := netproto.NewProbeInitiator(local)
	if err != nil {
		t.Fatal(err)
	}
	_, err = (Dialer{Addr: addr, Set: set}).Do(probe)
	return err
}

func TestNamedSetDispatch(t *testing.T) {
	srv, st, l := newStoreServer(t, Config{})
	space := metric.HammingCube(32)
	local, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: 99}}, randomPoints(space, 4, 77))
	if err != nil {
		t.Fatal(err)
	}
	// The default set and named sets, all through the one hello layout.
	for _, set := range []string{"", "tenant-a", "tenant-b"} {
		if err := probeVia(t, l.Addr().String(), set, local); err != nil {
			t.Fatalf("probe of set %q: %v", set, err)
		}
	}
	// Repair against one tenant must not touch the other.
	a, _ := st.Get("tenant-a")
	b, _ := st.Get("tenant-b")
	bFP := b.IDFingerprint()
	init, err := netproto.NewRepairInitiator(local, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Dialer{Addr: l.Addr().String(), Set: "tenant-a"}).Do(init); err != nil {
		t.Fatalf("repair of tenant-a: %v", err)
	}
	// The responder merges after its final frame; settle it first.
	srv.Quiesce()
	if local.IDFingerprint() != a.IDFingerprint() {
		t.Fatal("repair did not converge client with tenant-a")
	}
	if b.IDFingerprint() != bFP {
		t.Fatal("repair of tenant-a mutated tenant-b")
	}
}

func TestUnknownSetRejected(t *testing.T) {
	_, _, l := newStoreServer(t, Config{})
	space := metric.HammingCube(32)
	local, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: 99}}, randomPoints(space, 4, 78))
	if err != nil {
		t.Fatal(err)
	}
	err = probeVia(t, l.Addr().String(), "no-such-tenant", local)
	if err == nil || !strings.Contains(err.Error(), "unknown set") {
		t.Fatalf("dial of unknown set: %v, want unknown set rejection", err)
	}
}

// TestRetiredProtosRefused: a hello for a retired protocol ID (3 was
// exact-ID sync, 4 multiset-of-sets reconciliation) names no protocol a
// store serves, even for a set whose Sync state repair reads. Beside
// them runs every other rung of the hello ladder a store server answers,
// with the digest each status echoes.
func TestRetiredProtosRefused(t *testing.T) {
	_, st, l := newStoreServer(t, Config{})
	ls, _ := st.Get("tenant-a")
	probe := netproto.DigestLiveSet(ls)
	for _, tc := range []struct {
		hello netproto.Hello
		want  netproto.Status
		echo  uint64
	}{
		{netproto.Hello{Proto: 3, Role: netproto.RoleAlice, Set: "tenant-a"}, netproto.StatusUnknownProto, 0},
		{netproto.Hello{Proto: 4, Role: netproto.RoleAlice, Set: "tenant-a"}, netproto.StatusUnknownProto, 0},
		{netproto.Hello{Proto: netproto.ProtoProbe, Role: netproto.RoleAlice, Digest: probe, Set: "no-such-tenant"}, netproto.StatusUnknownSet, 0},
		{netproto.Hello{Proto: netproto.ProtoProbe, Role: netproto.RoleBob, Digest: probe, Set: "tenant-a"}, netproto.StatusRoleUnavailable, 0},
		{netproto.Hello{Proto: netproto.ProtoProbe, Role: netproto.RoleAlice, Digest: probe + 1, Set: "tenant-a"}, netproto.StatusDigestMismatch, probe},
		{netproto.Hello{Proto: netproto.ProtoProbe, Role: netproto.RoleAlice, Digest: probe, Set: "tenant-a"}, netproto.StatusOK, probe},
	} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		w := netproto.NewWire(conn)
		if err := netproto.SendHello(w, tc.hello); err != nil {
			t.Fatal(err)
		}
		status, echo, err := netproto.ReadAccept(w)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status != tc.want || echo != tc.echo {
			t.Errorf("%+v: status %v echo %#x, want %v echo %#x", tc.hello, status, echo, tc.want, tc.echo)
		}
	}
}

// slowHandler blocks in Run until released (or the connection dies).
type slowHandler struct {
	release chan struct{}
	started chan struct{}
}

func (h *slowHandler) Proto() netproto.Proto { return netproto.ProtoRepair }
func (h *slowHandler) Role() netproto.Role   { return netproto.RoleBob }
func (h *slowHandler) Digest() uint64        { return 0xfeed }
func (h *slowHandler) Run(conn transport.Conn) error {
	select {
	case h.started <- struct{}{}:
	default:
	}
	// Block on the peer's (never-sent) frame; a force-closed connection
	// unblocks with an error, a released peer sends one frame.
	_, err := conn.Recv()
	select {
	case <-h.release:
		return nil
	default:
		return err
	}
}

// slowClient is the slow handler's peer: it negotiates, then leaves the
// server's Run blocked in Recv until told to finish.
type slowClient struct {
	send chan struct{}
}

func (h *slowClient) Proto() netproto.Proto { return netproto.ProtoRepair }
func (h *slowClient) Role() netproto.Role   { return netproto.RoleAlice }
func (h *slowClient) Digest() uint64        { return 0xfeed }
func (h *slowClient) Run(conn transport.Conn) error {
	<-h.send
	e := transport.NewEncoder()
	e.WriteBool(true)
	return conn.Send(e)
}

func TestShutdownDrainsCleanly(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := NewServer(Config{Resolver: netproto.Handlers(func() netproto.Handler {
		return &slowHandler{release: release, started: started}
	})})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	send := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Dialer{Addr: l.Addr().String()}
		if _, err := d.Do(&slowClient{send: send}); err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	<-started
	close(release)
	close(send)
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	wg.Wait()
	if srv.Served() != 1 {
		t.Fatalf("Served = %d, want 1", srv.Served())
	}
}

func TestShutdownForceClosesStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := NewServer(Config{Resolver: netproto.Handlers(func() netproto.Handler {
		return &slowHandler{release: make(chan struct{}), started: started}
	})})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	send := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		d := Dialer{Addr: l.Addr().String()}
		_, err := d.Do(&slowClient{send: send}) // sends nothing until released
		errc <- err
	}()
	<-started
	start := time.Now()
	err = srv.Shutdown(50 * time.Millisecond)
	close(send) // release the client; its connection is already dead
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Shutdown = %v, want ErrDrainTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v, drain deadline not enforced", elapsed)
	}
	if srv.Failed() != 1 {
		t.Fatalf("Failed = %d, want 1 (force-closed session accounted)", srv.Failed())
	}
	<-errc // client fails too; either way it returns
	// Idempotent: a second shutdown (or Close) returns immediately.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
}

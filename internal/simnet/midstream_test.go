package simnet_test

import (
	"testing"
	"time"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/simnet/scenario"
	"repro/internal/workload"
)

// The mid-stream failure matrix: every registered protocol, with the
// connection severed at every frame boundary (and mid-frame) of either
// direction's stream, via simnet's drop-at-offset fault. The server must surface an error for
// the broken session (never a hang, a false success, or a panic), the
// virtual network must end with zero leaked connections, and a
// poisoned-pool verification session must still succeed afterwards —
// the failed session released its pooled buffers instead of retaining
// or double-recycling them. Run under -race in CI.

// protoCase builds FRESH server/client state per call, so a partially
// applied repair in one iteration cannot leak into the next.
type protoCase struct {
	name  string
	build func(t *testing.T) (srvFactory func() netproto.Handler, client netproto.Handler)
}

// liveSets builds a diverged (server, client) live-set pair maintaining
// Sync (and EMD when withEMD), for the cluster protocols.
func liveSets(t *testing.T, withEMD bool) (*live.Set, *live.Set) {
	t.Helper()
	space := metric.HammingCube(64)
	shared := workload.RandomSet(space, 20, rng.New(11))
	srvExtra := workload.RandomSet(space, 4, rng.New(12))
	cliExtra := workload.RandomSet(space, 3, rng.New(13))
	cfg := live.Config{Sync: &live.SyncConfig{Seed: 900}}
	if withEMD {
		p := emd.DefaultParams(space, 256, 4, 7)
		cfg.EMD = &p
	}
	srv, err := live.NewSet(cfg, append(shared.Clone(), srvExtra...))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := live.NewSet(cfg, append(shared.Clone(), cliExtra...))
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli
}

func matrixCases() []protoCase {
	space := metric.HammingCube(64)
	emdP := emd.Params{Space: space, N: 16, K: 2, D1: 2, D2: 64, Seed: 3}
	gapSpace := metric.HammingCube(128)
	gapP := gap.Params{Space: gapSpace, N: 12, R1: 2, R2: 32, Seed: 4}

	pts := func(space metric.Space, n int, seed uint64) metric.PointSet {
		return workload.RandomSet(space, n, rng.New(seed))
	}

	return []protoCase{
		{"emd", func(t *testing.T) (func() netproto.Handler, netproto.Handler) {
			f, err := netproto.NewEMDSenderFactory(emdP, pts(space, 16, 21))
			if err != nil {
				t.Fatal(err)
			}
			return f, netproto.NewEMDReceiver(emdP, pts(space, 16, 22))
		}},
		{"gap", func(t *testing.T) (func() netproto.Handler, netproto.Handler) {
			return func() netproto.Handler { return netproto.NewGapSender(gapP, pts(gapSpace, 12, 23)) },
				netproto.NewGapReceiver(gapP, pts(gapSpace, 12, 24))
		}},
		{"live-emd", func(t *testing.T) (func() netproto.Handler, netproto.Handler) {
			srvLS, cliLS := liveSets(t, true)
			f, err := netproto.NewLiveEMDSenderFactory(srvLS)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := cliLS.EMDParams()
			return f, netproto.NewLiveEMDReceiver(p, cliLS.Snapshot().Points, &netproto.EMDCache{})
		}},
		{"probe", func(t *testing.T) (func() netproto.Handler, netproto.Handler) {
			srvLS, cliLS := liveSets(t, false)
			f, err := netproto.NewProbeResponderFactory(srvLS)
			if err != nil {
				t.Fatal(err)
			}
			h, err := netproto.NewProbeInitiator(cliLS)
			if err != nil {
				t.Fatal(err)
			}
			return f, h
		}},
		{"repair", func(t *testing.T) (func() netproto.Handler, netproto.Handler) {
			srvLS, cliLS := liveSets(t, false)
			f, err := netproto.NewRepairResponderFactory(srvLS)
			if err != nil {
				t.Fatal(err)
			}
			h, err := netproto.NewRepairInitiator(cliLS, 0)
			if err != nil {
				t.Fatal(err)
			}
			return f, h
		}},
	}
}

// runMatrixSession runs one client session against a one-shot server
// over net, returning the client error and the drained server.
func runMatrixSession(t *testing.T, net *simnet.Network, factory func() netproto.Handler, client netproto.Handler) (error, *session.Server) {
	t.Helper()
	srv := session.NewServer(session.Config{
		Transport:      net.Host("srv"),
		SessionTimeout: 20 * time.Second,
		Resolver:       netproto.Handlers(factory),
	})
	if _, err := srv.Listen("sim", "srv:1"); err != nil {
		t.Fatal(err)
	}
	d := session.Dialer{
		Network:        "sim",
		Addr:           "srv:1",
		Transport:      net.Host("cli"),
		DialTimeout:    5 * time.Second,
		SessionTimeout: 20 * time.Second,
	}
	_, err := d.Do(client)
	srv.Shutdown(5 * time.Second) //nolint:errcheck // sessions on a cut conn die promptly
	return err, srv
}

// cutOffsets derives the offsets to test in one direction's stream
// from a clean run's chunk sizes: every frame boundary (0 = a cut
// before the stream's first byte) plus the midpoint of every frame.
func cutOffsets(writes []int) []int64 {
	var total int64
	for _, w := range writes {
		total += int64(w)
	}
	seen := map[int64]bool{}
	var out []int64
	add := func(o int64) {
		if o >= 0 && o < total && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	var cum int64
	add(0)
	for _, w := range writes {
		add(cum + int64(w)/2)
		cum += int64(w)
		add(cum)
	}
	return out
}

func TestMidStreamFailureMatrix(t *testing.T) {
	for _, pc := range matrixCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			// Clean run: discover the frame boundaries for this protocol.
			cleanNet := simnet.New(1)
			factory, client := pc.build(t)
			if err, srv := runMatrixSession(t, cleanNet, factory, client); err != nil {
				t.Fatalf("clean session failed: %v", err)
			} else if srv.Served() != 1 || srv.Failed() != 0 {
				t.Fatalf("clean session: served=%d failed=%d", srv.Served(), srv.Failed())
			}
			for _, dir := range [2][2]string{{"cli", "srv"}, {"srv", "cli"}} {
				from, to := dir[0], dir[1]
				conns := cleanNet.ConnWrites(from, to)
				if len(conns) != 1 || len(conns[0]) < 1 {
					t.Fatalf("clean run recorded %d conns (%s->%s chunks: %v)", len(conns), from, to, conns)
				}
				offsets := cutOffsets(conns[0])
				t.Logf("%s: %d frames %s->%s, cutting at %v", pc.name, len(conns[0]), from, to, offsets)
				for _, off := range offsets {
					matrixCut(t, pc, from, to, off)
				}
			}
		})
	}
}

// matrixCut runs one session of pc with from's stream to to severed
// at off, and checks that it fails cleanly, leaks nothing, and leaves
// the buffer pools fit for a clean session.
func matrixCut(t *testing.T, pc protoCase, from, to string, off int64) {
	t.Helper()
	net := simnet.New(uint64(2 + off))
	net.DropAfter(from, to, off)
	factory, client := pc.build(t)
	err, srv := runMatrixSession(t, net, factory, client)
	if err == nil {
		t.Fatalf("cut %s->%s at offset %d: client session succeeded", from, to, off)
	}
	if srv.Served() != 0 {
		t.Fatalf("cut %s->%s at offset %d: server recorded a successful session", from, to, off)
	}
	// At the client's offset 0 not a single byte flows, so the server
	// may tear the connection down before ever starting a session; any
	// delivered prefix forces the server to engage (the synchronous
	// pipe means the client's write only completed because the server
	// was reading) and the session must be surfaced as a failure. A
	// cut in the server's stream comes after the whole hello.
	if (off > 0 || from == "srv") && srv.Failed() != 1 {
		t.Fatalf("cut %s->%s at offset %d: server failed=%d, want the session surfaced as an error",
			from, to, off, srv.Failed())
	}
	// The server's background accept goroutine may still be tearing
	// down a connection the cut killed before any session started; give
	// it a bounded moment before calling a remaining endpoint a leak.
	deadline := time.Now().Add(2 * time.Second)
	for net.OpenConns() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if open := net.OpenConns(); open != 0 {
		t.Fatalf("cut %s->%s at offset %d: %d connection endpoints leaked", from, to, off, open)
	}

	// Canary: poison pooled encoders (their backing arrays are the
	// recycled buffers of the failed session) and require a clean
	// session to still succeed — the failed session must have released,
	// not retained, its pooled memory.
	release := scenario.PoisonPool(8, 2048)
	verifyNet := simnet.New(uint64(3 + off))
	factory, client = pc.build(t)
	if err, _ := runMatrixSession(t, verifyNet, factory, client); err != nil {
		t.Fatalf("cut %s->%s at offset %d: clean session after poisoned pool failed: %v", from, to, off, err)
	}
	release()
}

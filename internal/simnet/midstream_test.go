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
// connection severed at every frame boundary (and mid-frame), via
// simnet's drop-at-offset fault. The server must surface an error for
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
			return netproto.NewProbeResponderFactory(srvLS), netproto.NewProbeInitiator(cliLS)
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
	})
	srv.Handle(factory)
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

// cutOffsets derives the offsets to test from a clean run's chunk
// sizes: every frame boundary (0 = reset before the hello) plus the
// midpoint of every frame.
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
			conns := cleanNet.ConnWrites("cli", "srv")
			if len(conns) != 1 || len(conns[0]) < 2 {
				t.Fatalf("clean run recorded %d conns (chunks: %v)", len(conns), conns)
			}
			offsets := cutOffsets(conns[0])
			t.Logf("%s: %d frames, cutting at %v", pc.name, len(conns[0]), offsets)

			for _, off := range offsets {
				net := simnet.New(uint64(2 + off))
				net.DropAfter("cli", "srv", off)
				factory, client := pc.build(t)
				err, srv := runMatrixSession(t, net, factory, client)
				if err == nil {
					t.Fatalf("cut at offset %d: client session succeeded", off)
				}
				if srv.Served() != 0 {
					t.Fatalf("cut at offset %d: server recorded a successful session", off)
				}
				// At offset 0 not a single byte flows, so the server may
				// tear the connection down before ever starting a session;
				// any delivered prefix forces the server to engage (the
				// synchronous pipe means the client's write only completed
				// because the server was reading) and the session must be
				// surfaced as a failure.
				if off > 0 && srv.Failed() != 1 {
					t.Fatalf("cut at offset %d: server failed=%d, want the session surfaced as an error",
						off, srv.Failed())
				}
				// The server's background accept goroutine may still be
				// tearing down a connection the cut killed before any
				// session started; give it a bounded moment before calling
				// a remaining endpoint a leak.
				deadline := time.Now().Add(2 * time.Second)
				for net.OpenConns() != 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if open := net.OpenConns(); open != 0 {
					t.Fatalf("cut at offset %d: %d connection endpoints leaked", off, open)
				}

				// Canary: poison pooled encoders (their backing arrays are
				// the recycled buffers of the failed session) and require a
				// clean session to still succeed — the failed session must
				// have released, not retained, its pooled memory.
				release := scenario.PoisonPool(8, 2048)
				verifyNet := simnet.New(uint64(3 + off))
				factory, client = pc.build(t)
				if err, _ := runMatrixSession(t, verifyNet, factory, client); err != nil {
					t.Fatalf("cut at offset %d: clean session after poisoned pool failed: %v", off, err)
				}
				release()
			}
		})
	}
}

package simnet_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/simnet/scenario"
)

// The mid-stream failure matrix, ported to pooled RSYN v3 carriers: a
// shared multiplexed connection is severed at every carrier frame
// boundary (and mid-frame) via simnet's drop-at-offset fault. The
// session riding the carrier at the cut must fail with the canonical
// cut error (never a hang, a false success, or an unrelated EOF), a cut
// during carrier negotiation included; the pool must re-dial a carrier
// so a follow-up session always succeeds, the virtual network must end
// with zero leaked endpoints, and the poisoned-pool canary must pass.

// muxMatrixIDs builds the diverged sync workload shared by the server
// and every client session.
func muxMatrixIDs(seed uint64, n int, extra ...uint64) []uint64 {
	src := rng.New(seed)
	out := make([]uint64, n, n+len(extra))
	for i := range out {
		out[i] = src.Uint64()
	}
	return append(out, extra...)
}

// muxMatrixRun drives count sequential sync sessions through one pool
// over net, then a recovery session; it returns the per-session errors
// (recovery excluded), the pool, and the server.
func muxMatrixRun(t *testing.T, net *simnet.Network, count int) ([]error, *session.MuxPool, *session.Server) {
	t.Helper()
	p := netproto.SyncParams{Seed: 5}
	srv := session.NewServer(session.Config{
		Transport:      net.Host("srv"),
		SessionTimeout: 20 * time.Second,
	})
	srv.Handle(func() netproto.Handler { return netproto.NewSyncResponder(p, muxMatrixIDs(31, 50, 1, 2, 3)) })
	if _, err := srv.Listen("sim", "srv:1"); err != nil {
		t.Fatal(err)
	}
	pool := &session.MuxPool{
		Network:        "sim",
		Transport:      net.Host("cli"),
		DialTimeout:    5 * time.Second,
		SessionTimeout: 20 * time.Second,
	}
	errs := make([]error, count)
	for i := range errs {
		h := netproto.NewSyncInitiator(p, muxMatrixIDs(31, 50, 7, 8))
		_, errs[i] = pool.Do("srv:1", "", h)
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
	// sessions share one carrier, so the chunk list covers negotiation,
	// both sessions' streams, and the inter-session idle boundary.
	cleanNet := simnet.New(1)
	errs, pool, srv := muxMatrixRun(t, cleanNet, 2)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean session %d failed: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Dials != 1 || st.Sessions != 2 {
		t.Fatalf("clean run: pool stats %v, want 1 dial, 2 sessions", st.String())
	}
	muxMatrixTeardown(t, cleanNet, pool, srv, "clean run")
	conns := cleanNet.ConnWrites("cli", "srv")
	if len(conns) != 1 || len(conns[0]) < 4 {
		t.Fatalf("clean run recorded %d conns (chunks: %v)", len(conns), conns)
	}
	offsets := cutOffsets(conns[0])
	t.Logf("mux carrier: %d frames over one conn, cutting at %v", len(conns[0]), offsets)

	for _, off := range offsets {
		net := simnet.New(uint64(2 + off))
		net.DropAfter("cli", "srv", off)
		errs, pool, srv := muxMatrixRun(t, net, 2)
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
				t.Fatalf("cut at offset %d: session %d failed without the canonical cut error: %v", off, i, err)
			}
		}
		// Recovery: the fault is spent, so one more session through the
		// same pool must succeed over a re-dialed carrier.
		h := netproto.NewSyncInitiator(netproto.SyncParams{Seed: 5}, muxMatrixIDs(31, 50, 7, 8))
		if _, err := pool.Do("srv:1", "", h); err != nil {
			t.Fatalf("cut at offset %d: recovery session failed: %v", off, err)
		}
		if len(h.TheirsOnly) != 3 || len(h.MinesOnly) != 2 {
			t.Fatalf("cut at offset %d: recovery session returned %d/%d IDs, want 3/2", off, len(h.TheirsOnly), len(h.MinesOnly))
		}
		if st := pool.Stats(); failed == 0 && st.Dials < 2 {
			// No session failed: legal only when the cut landed on an
			// idle carrier or its final close frame, in which case the
			// recovery session must have re-dialed a fresh carrier.
			t.Fatalf("cut at offset %d: no session failed, yet the pool did not re-dial (%v)", off, st)
		}
		muxMatrixTeardown(t, net, pool, srv, "post-cut")

		// Canary: poison pooled encoders and require a clean pooled
		// session to still succeed — the failed streams released their
		// pooled buffers instead of retaining or double-recycling them.
		release := scenario.PoisonPool(8, 2048)
		verifyNet := simnet.New(uint64(3 + off))
		verrs, vpool, vsrv := muxMatrixRun(t, verifyNet, 1)
		if verrs[0] != nil {
			t.Fatalf("cut at offset %d: clean session after poisoned pool failed: %v", off, verrs[0])
		}
		muxMatrixTeardown(t, verifyNet, vpool, vsrv, "canary")
		release()
	}
}

// TestMuxCutFailsInFlightStreams cuts a carrier while several sessions
// are genuinely concurrent on it: every session that fails must fail
// with the canonical cut error, at least one must notice the cut (the
// offset lands mid-carrier, past negotiation), and the pool must still
// serve a recovery session afterwards.
func TestMuxCutFailsInFlightStreams(t *testing.T) {
	// Discover the carrier length from a sequential clean run.
	cleanNet := simnet.New(1)
	errs, pool, srv := muxMatrixRun(t, cleanNet, 2)
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
	p := netproto.SyncParams{Seed: 5}
	srv2 := session.NewServer(session.Config{
		Transport:      net.Host("srv"),
		SessionTimeout: 20 * time.Second,
	})
	srv2.Handle(func() netproto.Handler { return netproto.NewSyncResponder(p, muxMatrixIDs(31, 50, 1, 2, 3)) })
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
			h := netproto.NewSyncInitiator(p, muxMatrixIDs(31, 50, 7, 8))
			_, serrs[i] = pool2.Do("srv:1", "", h)
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
	h := netproto.NewSyncInitiator(p, muxMatrixIDs(31, 50, 7, 8))
	if _, err := pool2.Do("srv:1", "", h); err != nil {
		t.Fatalf("recovery session failed: %v", err)
	}
	muxMatrixTeardown(t, net, pool2, srv2, "concurrent cut")
}

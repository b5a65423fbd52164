package netproto

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/workload"
)

func liveFixtureParams() (emd.Params, gap.Params, live.Config) {
	space := metric.HammingCube(64)
	emdP := emd.Params{Space: space, N: 32, K: 3, D1: 2, D2: 64, Seed: 7}
	gapP := gap.Params{Space: space, N: 32, R1: 2, R2: 16, Seed: 8}
	cfg := live.Config{EMD: &emdP, Gap: &gapP, Sync: &live.SyncConfig{Seed: 9}}
	return emdP, gapP, cfg
}

func liveRandomSet(space metric.Space, n int, seed uint64) metric.PointSet {
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

// runLiveEMDSession drives one live EMD session over an in-memory
// duplex stream: the server-side handler from the factory, the client
// with its persistent cache.
func runLiveEMDSession(t *testing.T, factory func() Handler, h *LiveEMDReceiver) *LiveEMDSender {
	t.Helper()
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	srv := factory().(*LiveEMDSender)
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = RunResponder(a, srv)
	}()
	if _, err := RunInitiator(b, h); err != nil {
		t.Fatalf("client: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return srv
}

// TestLiveEMDDeltaSync: first session ships the full sketch; after
// churn, a returning peer announcing its epoch receives only churned
// cells, reconciles identically, and the payload is smaller.
func TestLiveEMDDeltaSync(t *testing.T) {
	emdP, _, cfg := liveFixtureParams()
	cfg.Gap, cfg.Sync = nil, nil
	sa := liveRandomSet(emdP.Space, emdP.N, 41)
	ls, err := live.NewSet(cfg, sa)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := NewLiveEMDSenderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	sb := liveRandomSet(emdP.Space, emdP.N, 42)
	cache := &EMDCache{}

	h1 := NewLiveEMDReceiver(emdP, sb, cache)
	s1 := runLiveEMDSession(t, factory, h1)
	if h1.UsedDelta || s1.DeltaServed {
		t.Fatal("first session must be a full transfer")
	}
	if h1.Epoch != ls.Epoch() {
		t.Fatalf("client synced epoch %d, server at %d", h1.Epoch, ls.Epoch())
	}
	fullBytes := s1.PayloadBytes

	// Churn: replace two points.
	for i := 0; i < 2; i++ {
		if err := ls.Remove(sa[i]); err != nil {
			t.Fatal(err)
		}
		if err := ls.Add(liveRandomSet(emdP.Space, 1, uint64(100+i))[0]); err != nil {
			t.Fatal(err)
		}
	}

	h2 := NewLiveEMDReceiver(emdP, sb, cache)
	s2 := runLiveEMDSession(t, factory, h2)
	if !h2.UsedDelta || !s2.DeltaServed {
		t.Fatal("returning peer within the journal horizon must get a delta")
	}
	if s2.PayloadBytes >= fullBytes {
		t.Errorf("delta payload %d not smaller than full %d", s2.PayloadBytes, fullBytes)
	}
	// The patched cache must equal the server's current message, and
	// reconciliation must behave exactly like a full-transfer client's.
	snap := ls.Snapshot()
	fresh := NewLiveEMDReceiver(emdP, sb, nil)
	s3 := runLiveEMDSession(t, factory, fresh)
	if s3.DeltaServed {
		t.Fatal("fresh cache must get a full transfer")
	}
	if fresh.Result.Failed != h2.Result.Failed || fresh.Result.Level != h2.Result.Level ||
		len(fresh.Result.SPrime) != len(h2.Result.SPrime) {
		t.Errorf("delta client reconciliation diverges from full client")
	}
	_ = snap

	// Up-to-date peer: empty delta, still consistent.
	h4 := NewLiveEMDReceiver(emdP, sb, cache)
	s4 := runLiveEMDSession(t, factory, h4)
	if !s4.DeltaServed || s4.PayloadBytes >= fullBytes {
		t.Errorf("up-to-date peer served mode delta=%v payload=%d", s4.DeltaServed, s4.PayloadBytes)
	}
}

// TestLiveEMDJournalAgedOut: a peer whose epoch fell off the journal
// gets a clean full transfer.
func TestLiveEMDJournalAgedOut(t *testing.T) {
	emdP, _, cfg := liveFixtureParams()
	cfg.Gap, cfg.Sync = nil, nil
	sa := liveRandomSet(emdP.Space, emdP.N, 51)
	ls, err := live.NewSet(cfg, sa)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := NewLiveEMDSenderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	sb := liveRandomSet(emdP.Space, emdP.N, 52)
	cache := &EMDCache{}
	runLiveEMDSession(t, factory, NewLiveEMDReceiver(emdP, sb, cache))

	// 258 epochs of churn outlast the set's 256-epoch journal.
	pt := sa[0]
	for i := 0; i < 129; i++ {
		if err := ls.Remove(pt); err != nil {
			t.Fatal(err)
		}
		pt = liveRandomSet(emdP.Space, 1, uint64(200+i))[0]
		if err := ls.Add(pt); err != nil {
			t.Fatal(err)
		}
	}
	h := NewLiveEMDReceiver(emdP, sb, cache)
	s := runLiveEMDSession(t, factory, h)
	if s.DeltaServed || h.UsedDelta {
		t.Fatal("aged-out epoch must fall back to a full transfer")
	}
	if h.Epoch != ls.Epoch() {
		t.Errorf("client at epoch %d, server at %d", h.Epoch, ls.Epoch())
	}
}

// TestLiveGapServing: the ordinary Gap protocol served from a live
// snapshot behaves like its rebuilt-per-session counterpart.
func TestLiveGapServing(t *testing.T) {
	_, gapP, cfg := liveFixtureParams()
	cfg.EMD = nil
	ginst, err := workload.NewGapInstance(gapP.Space, 24, 2, 1, 2, 16, 43)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := live.NewSet(cfg, ginst.SA)
	if err != nil {
		t.Fatal(err)
	}
	gapFactory, err := NewLiveGapSenderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	// Gap session against a plain receiver.
	a, b := duplex()
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = RunResponder(a, gapFactory())
		a.Close()
	}()
	gh := NewGapReceiver(gapP, ginst.SB)
	if _, err := RunInitiator(b, gh); err != nil {
		t.Fatalf("gap client: %v", err)
	}
	b.Close()
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("gap server: %v", srvErr)
	}
	for _, pt := range ginst.SA {
		if dist, _ := gh.Result.SPrime.MinDistanceTo(gapP.Space, pt); dist > gapP.R2 {
			t.Errorf("gap coverage hole at distance %v", dist)
		}
	}

	// Churn invalidates the served snapshot for *new* sessions only:
	// a session built before the mutation still serves its epoch.
	pre := gapFactory().(*LiveGapSender)
	if err := ls.Add(ginst.SB[0]); err != nil {
		t.Fatal(err)
	}
	post := gapFactory().(*LiveGapSender)
	if pre.snap.Epoch == post.snap.Epoch {
		t.Error("new session did not observe the new epoch")
	}
	if !bytes.Equal(encodePoints(pre.snap.Points), encodePoints(pre.snap.Points)) {
		t.Error("snapshot mutated")
	}
}

func encodePoints(pts metric.PointSet) []byte {
	var buf bytes.Buffer
	for _, pt := range pts {
		for _, c := range pt {
			buf.WriteByte(byte(c))
		}
	}
	return buf.Bytes()
}

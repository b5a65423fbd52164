package live

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/iblt"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

func testConfig() Config {
	space := metric.HammingCube(64)
	return Config{
		EMD: &emd.Params{
			Space: space, N: 32, K: 3, D1: 2, D2: 64, Seed: 7, Workers: 1,
		},
		Gap: &gap.Params{
			Space: space, N: 32, R1: 2, R2: 16, Seed: 8, Workers: 1,
		},
		Sync: &SyncConfig{Seed: 9},
	}
}

func randomPoint(space metric.Space, src *rng.Source) metric.Point {
	pt := make(metric.Point, space.Dim)
	for i := range pt {
		pt[i] = int32(src.Uint64() % uint64(space.Delta+1))
	}
	return pt
}

func encodeStrata(s *iblt.Strata) []byte {
	e := transport.NewEncoder()
	s.Encode(e)
	data, _ := e.Pack()
	return data
}

// TestLiveSetGoldenIncremental is the acceptance golden test: over
// 1000 random Add/Remove operations, the incrementally maintained EMD
// sketch stays wire-bit-identical to a from-scratch build over the
// current multiset, the cached Gap payloads match fresh key
// construction, and the strata estimator matches a rebuild over the
// live fingerprints.
func TestLiveSetGoldenIncremental(t *testing.T) {
	cfg := testConfig()
	emdP := *cfg.EMD
	src := rng.New(123)
	var initial metric.PointSet
	for i := 0; i < 24; i++ {
		initial = append(initial, randomPoint(emdP.Space, src))
	}
	ls, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	keyer, err := gap.NewKeyer(*cfg.Gap)
	if err != nil {
		t.Fatal(err)
	}

	mirror := append(metric.PointSet{}, initial...)
	const ops = 1000
	for op := 0; op < ops; op++ {
		if len(mirror) > 0 && (len(mirror) >= emdP.N || src.Uint64()%2 == 0) {
			i := int(src.Uint64() % uint64(len(mirror)))
			if err := ls.Remove(mirror[i]); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			mirror[i] = mirror[len(mirror)-1]
			mirror = mirror[:len(mirror)-1]
		} else {
			pt := randomPoint(emdP.Space, src)
			if err := ls.Add(pt); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			mirror = append(mirror, pt)
		}
		if op%200 != 199 && op != ops-1 {
			continue
		}
		snap := ls.Snapshot()
		if len(snap.Points) != len(mirror) {
			t.Fatalf("op %d: snapshot has %d points, mirror %d", op, len(snap.Points), len(mirror))
		}
		ref, err := emd.BuildSketch(emdP, mirror)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.EMDMessage, ref.Encode()) {
			t.Fatalf("op %d (size %d): incremental EMD sketch not wire-identical to from-scratch build",
				op, len(mirror))
		}
		for i, pt := range snap.Points {
			if !bytes.Equal(snap.GapPayloads[i], keyer.Payload(pt)) {
				t.Fatalf("op %d: cached gap payload %d differs from fresh key", op, i)
			}
		}
		sc, ok := ls.SyncConfig()
		if !ok {
			t.Fatal("sync state not enabled")
		}
		wantStrata := iblt.NewStrataFromKeys(sc.StrataCells, sc.Seed, snap.IDs, 1)
		if !bytes.Equal(encodeStrata(snap.Strata), encodeStrata(wantStrata)) {
			t.Fatalf("op %d: live strata differs from rebuild over %d ids", op, len(snap.IDs))
		}
	}
	if got, want := ls.Epoch(), uint64(1+ops); got != want {
		t.Errorf("epoch = %d, want %d", got, want)
	}
	// Wire-path fidelity at full capacity: top up to N and compare with
	// the protocol's own message builder.
	for len(mirror) < emdP.N {
		pt := randomPoint(emdP.Space, src)
		if err := ls.Add(pt); err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, pt)
	}
	msg, err := emd.BuildMessage(emdP, mirror)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ls.Snapshot().EMDMessage, msg) {
		t.Fatal("live sketch at capacity differs from BuildMessage wire bytes")
	}
}

// TestLiveSetDeltaJournal covers the delta-sync bookkeeping: patching a
// stale epoch's sketch with DeltaCells reproduces the current message;
// epochs past the journal horizon force a full transfer.
func TestLiveSetDeltaJournal(t *testing.T) {
	cfg := testConfig()
	cfg.Gap, cfg.Sync = nil, nil
	cfg.JournalEpochs = 8
	emdP := *cfg.EMD
	src := rng.New(5)
	var initial metric.PointSet
	for i := 0; i < emdP.N; i++ {
		initial = append(initial, randomPoint(emdP.Space, src))
	}
	ls, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	stale := ls.Snapshot()
	cached, from := stale.EMD.Clone(), stale.Epoch

	live := append(metric.PointSet{}, initial...)
	for i := 0; i < 3; i++ { // 6 epochs of churn, within the 8-epoch horizon
		if err := ls.Remove(live[i]); err != nil {
			t.Fatal(err)
		}
		pt := randomPoint(emdP.Space, src)
		if err := ls.Add(pt); err != nil {
			t.Fatal(err)
		}
		live[i] = pt
	}
	now := ls.Snapshot()
	refs, ok := ls.DeltaCells(from, now.Epoch)
	if !ok {
		t.Fatal("journal should cover 6 epochs of churn with horizon 8")
	}
	if err := cached.ApplyCells(now.EMD.EncodeCells(refs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Encode(), now.EMDMessage) {
		t.Fatal("patched stale sketch differs from current message")
	}
	if cached.Fingerprint() != now.EMDFingerprint {
		t.Fatal("fingerprint mismatch after patch")
	}

	// Age the stale epoch out of the journal: horizon is 8 epochs.
	for i := 0; i < 12; i++ {
		pt := randomPoint(emdP.Space, src)
		if err := ls.Add(pt); err == nil {
			if err := ls.Remove(pt); err != nil {
				t.Fatal(err)
			}
		} else {
			// At capacity: remove then re-add instead.
			if err := ls.Remove(live[0]); err != nil {
				t.Fatal(err)
			}
			if err := ls.Add(live[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := ls.DeltaCells(from, ls.Epoch()); ok {
		t.Fatal("journal should have aged out the stale epoch")
	}
	if _, ok := ls.DeltaCells(ls.Epoch(), ls.Epoch()); !ok {
		t.Fatal("up-to-date peer should get an empty delta")
	}
}

// TestLiveSetBatchAtomic: a batch with an invalid op applies nothing.
func TestLiveSetBatchAtomic(t *testing.T) {
	cfg := testConfig()
	cfg.Gap, cfg.Sync = nil, nil
	emdP := *cfg.EMD
	src := rng.New(17)
	var initial metric.PointSet
	for i := 0; i < 4; i++ {
		initial = append(initial, randomPoint(emdP.Space, src))
	}
	ls, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	before := ls.Snapshot()
	absent := randomPoint(emdP.Space, src)
	err = ls.ApplyBatch([]Op{
		{Point: randomPoint(emdP.Space, src)},
		{Remove: true, Point: absent},
	})
	if err == nil {
		t.Fatal("batch with absent-point removal must fail")
	}
	after := ls.Snapshot()
	if after.Epoch != before.Epoch || !bytes.Equal(after.EMDMessage, before.EMDMessage) {
		t.Fatal("failed batch mutated the set")
	}
	// A valid batch is one epoch.
	pt := randomPoint(emdP.Space, src)
	if err := ls.ApplyBatch([]Op{{Point: pt}, {Remove: true, Point: pt}}); err != nil {
		t.Fatal(err)
	}
	if got := ls.Epoch(); got != before.Epoch+1 {
		t.Errorf("batch bumped epoch to %d, want %d", got, before.Epoch+1)
	}
}

// TestLiveSetDuplicates: multiset semantics — duplicates count, sync
// IDs collapse.
func TestLiveSetDuplicates(t *testing.T) {
	cfg := testConfig()
	emdP := *cfg.EMD
	src := rng.New(29)
	pt := randomPoint(emdP.Space, src)
	ls, err := NewSet(cfg, metric.PointSet{pt, pt.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Size() != 2 {
		t.Fatalf("size = %d, want 2", ls.Size())
	}
	snap := ls.Snapshot()
	if len(snap.Points) != 2 || len(snap.IDs) != 1 {
		t.Fatalf("points=%d ids=%d, want 2 and 1", len(snap.Points), len(snap.IDs))
	}
	if err := ls.Remove(pt); err != nil {
		t.Fatal(err)
	}
	if err := ls.Remove(pt); err != nil {
		t.Fatal(err)
	}
	if err := ls.Remove(pt); err == nil {
		t.Fatal("third remove of a twice-added point must fail")
	}
	if ls.Size() != 0 || len(ls.Snapshot().IDs) != 0 {
		t.Fatal("set not empty after removing both copies")
	}
}

// TestSnapshotStrataWireConcurrent has many goroutines ask one fresh
// snapshot for its strata encoding at once: every caller must get the
// same bytes, equal to encoding the estimator directly, and later
// epochs get their own. Run under -race, it also checks the lazy
// memoization is properly synchronized.
func TestSnapshotStrataWireConcurrent(t *testing.T) {
	space := metric.HammingCube(64)
	src := rng.New(5)
	var pts metric.PointSet
	for i := 0; i < 24; i++ {
		pts = append(pts, randomPoint(space, src))
	}
	s, err := NewSet(Config{Sync: &SyncConfig{Seed: 9}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		snap := s.Snapshot()
		want := encodeStrata(snap.Strata)
		const callers = 16
		wires := make([][]byte, callers)
		bits := make([]int64, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wires[i], bits[i] = snap.StrataWire()
			}(i)
		}
		wg.Wait()
		for i := range wires {
			if !bytes.Equal(wires[i], want) || bits[i] != int64(len(want))*8 {
				t.Fatalf("round %d caller %d: %d-bit wire differs from Strata.Encode (%d bytes)", round, i, bits[i], len(want))
			}
			if &wires[i][0] != &wires[0][0] {
				t.Fatalf("round %d caller %d: encoding not shared", round, i)
			}
		}
		if err := s.Add(randomPoint(space, src)); err != nil {
			t.Fatal(err)
		}
	}
	noSync, err := NewSet(Config{EMD: testConfig().EMD}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if wire, bits := noSync.Snapshot().StrataWire(); wire != nil || bits != 0 {
		t.Fatalf("set without Sync has a strata encoding of %d bits", bits)
	}
}

package live

import (
	"bytes"
	"runtime"
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
			Space: space, N: 32, K: 3, D1: 2, D2: 64, Seed: 7,
		},
		Gap: &gap.Params{
			Space: space, N: 32, R1: 2, R2: 16, Seed: 8,
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

// serveEMD makes one live-emd serve for a peer at epoch since.
func serveEMD(t *testing.T, ls *Set, since uint64) (*Snapshot, []byte) {
	t.Helper()
	snap, delta, err := ls.ServeEMD(since)
	if err != nil {
		t.Fatal(err)
	}
	return snap, delta
}

// requireBuiltMessage fails unless snap carries the message, and its
// fingerprint, of a from-scratch build over its own points.
func requireBuiltMessage(t *testing.T, p emd.Params, snap *Snapshot) {
	t.Helper()
	ref, err := emd.BuildSketch(p, snap.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.EMDMessage, ref.Encode()) || snap.EMDFingerprint != ref.Fingerprint() {
		t.Fatalf("snapshot at epoch %d carries an EMD message that is not its points'", snap.Epoch)
	}
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
// construction, and the snapshot's strata estimator matches a build over
// the live fingerprints. The set has Sync, so it is served once up
// front to build its sketch before the churn starts.
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
	serve := func() *Snapshot {
		t.Helper()
		snap, _ := serveEMD(t, ls, 0)
		return snap
	}
	serve()
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
		snap := serve()
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
		wantStrata := iblt.NewStrataFromKeys(iblt.StrataCells, sc.Seed, snap.IDs)
		if !bytes.Equal(encodeStrata(snap.Strata()), encodeStrata(wantStrata)) {
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
	if !bytes.Equal(serve().EMDMessage, msg) {
		t.Fatal("live sketch at capacity differs from BuildMessage wire bytes")
	}
}

// TestLiveSetDeltaJournal covers the delta-sync bookkeeping: patching
// the sketch decoded from a stale epoch's message with ServeEMD's delta
// reproduces the current message; epochs past the journal horizon, and
// epochs the set has not reached, get no delta.
func TestLiveSetDeltaJournal(t *testing.T) {
	cfg := testConfig()
	cfg.Gap, cfg.Sync = nil, nil
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
	cached, err := emd.DecodeSketch(emdP, stale.EMDMessage)
	if err != nil {
		t.Fatal(err)
	}
	from := stale.Epoch

	live := append(metric.PointSet{}, initial...)
	for i := 0; i < 3; i++ { // 6 epochs of churn, within the horizon
		if err := ls.Remove(live[i]); err != nil {
			t.Fatal(err)
		}
		pt := randomPoint(emdP.Space, src)
		if err := ls.Add(pt); err != nil {
			t.Fatal(err)
		}
		live[i] = pt
	}
	now, delta := serveEMD(t, ls, from)
	if delta == nil {
		t.Fatalf("journal should cover 6 epochs of churn with horizon %d", journalEpochs)
	}
	if now != ls.Snapshot() {
		t.Fatal("ServeEMD did not serve the cached snapshot of the current epoch")
	}
	if err := cached.ApplyCells(delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Encode(), now.EMDMessage) {
		t.Fatal("patched stale sketch differs from current message")
	}
	if cached.Fingerprint() != now.EMDFingerprint {
		t.Fatal("fingerprint mismatch after patch")
	}

	// Age the stale epoch out of the journal. The set is at capacity,
	// so each epoch removes or re-adds one point. A peer exactly
	// journalEpochs behind still gets a delta; one epoch more forces a
	// full transfer.
	removed := false
	churn := func() {
		t.Helper()
		err := ls.Remove(live[0])
		if removed {
			err = ls.Add(live[0])
		}
		if err != nil {
			t.Fatal(err)
		}
		removed = !removed
	}
	for ls.Epoch()-from < journalEpochs {
		churn()
	}
	if _, delta := serveEMD(t, ls, from); delta == nil {
		t.Fatalf("journal should cover a peer %d epochs behind", journalEpochs)
	}
	churn()
	if _, delta := serveEMD(t, ls, from); delta != nil {
		t.Fatal("journal should have aged out the stale epoch")
	}
	if _, delta := serveEMD(t, ls, ls.Epoch()); !bytes.Equal(delta, cached.EncodeCells(nil)) {
		t.Fatal("up-to-date peer should get an empty delta")
	}
	for _, since := range []uint64{0, ls.Epoch() + 1} {
		if _, delta := serveEMD(t, ls, since); delta != nil {
			t.Fatalf("a peer at epoch %d (set at %d) was offered a delta", since, ls.Epoch())
		}
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
// epochs get their own. Run under -race, it also checks the lazy build
// and encoding are properly synchronized.
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
		want := encodeStrata(snap.Strata())
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
	if noSync.Snapshot().Strata() != nil {
		t.Fatal("set without Sync has a strata estimator")
	}
}

// TestSnapshotBuildsStrataOnDemand: a snapshot builds no estimator until
// Strata or StrataWire asks for one, and both return the same one.
func TestSnapshotBuildsStrataOnDemand(t *testing.T) {
	space := metric.HammingCube(64)
	src := rng.New(8)
	var pts metric.PointSet
	for i := 0; i < 16; i++ {
		pts = append(pts, randomPoint(space, src))
	}
	s, err := NewSet(Config{Sync: &SyncConfig{Seed: 9}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []string{"Strata", "StrataWire"} {
		snap := s.Snapshot()
		if snap.strata != nil {
			t.Fatalf("%s first: snapshot built an estimator up front", first)
		}
		if first == "Strata" {
			snap.Strata()
		} else {
			snap.StrataWire()
		}
		if snap.strata == nil {
			t.Fatalf("%s built no estimator", first)
		}
		wire, _ := snap.StrataWire()
		if snap.Strata() != snap.strata || !bytes.Equal(wire, encodeStrata(snap.strata)) {
			t.Fatalf("%s first: Strata and StrataWire disagree", first)
		}
		if err := s.Add(randomPoint(space, src)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEmptySetStrata: an empty Sync set has an empty estimator, not
// nil, and it estimates a small difference against a non-empty set
// exactly.
func TestEmptySetStrata(t *testing.T) {
	space := metric.HammingCube(64)
	src := rng.New(9)
	var pts metric.PointSet
	for i := 0; i < 5; i++ {
		pts = append(pts, randomPoint(space, src))
	}
	empty, err := NewSet(Config{Sync: &SyncConfig{Seed: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSet(Config{Sync: &SyncConfig{Seed: 9}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	st := empty.Snapshot().Strata()
	if st == nil {
		t.Fatal("empty Sync set has no estimator")
	}
	for _, c := range []struct {
		name string
		a, b *iblt.Strata
	}{{"empty vs full", st, full.Snapshot().Strata()}, {"full vs empty", full.Snapshot().Strata(), st}} {
		est, err := c.a.Estimate(c.b)
		if err != nil || est != len(pts) {
			t.Fatalf("%s: estimate %d (err %v), want %d", c.name, est, err, len(pts))
		}
	}
}

// TestSyncAddSnapshotAllocs: an Add plus a Snapshot of a 64-point Sync
// set costs the point's own entry and the snapshot's point and ID lists,
// not an estimator update and a deep copy of one.
func TestSyncAddSnapshotAllocs(t *testing.T) {
	const runs = 50
	space := metric.HammingCube(128)
	src := rng.New(10)
	var pts metric.PointSet
	for i := 0; i < 64+runs+1; i++ {
		pts = append(pts, randomPoint(space, src))
	}
	s, err := NewSet(Config{Sync: &SyncConfig{Seed: 9}}, pts[:64])
	if err != nil {
		t.Fatal(err)
	}
	next := 64
	allocs := testing.AllocsPerRun(runs, func() {
		if err := s.Add(pts[next]); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
		next++
	})
	t.Logf("%.1f allocations per Add plus Snapshot", allocs)
	if allocs > 16 {
		t.Fatalf("Add plus Snapshot took %.1f allocations, want at most 16", allocs)
	}
}

// TestSnapshotEMDWire: a snapshot carries the encoded EMD message and
// its fingerprint, never a sketch. A set with Sync has none until its
// first serve; from then on every snapshot encodes it, served or not. A
// set without Sync has it from creation. Each is the message of a
// from-scratch build over the snapshot's own points.
func TestSnapshotEMDWire(t *testing.T) {
	cfg := testConfig()
	emdP := *cfg.EMD
	src := rng.New(6)
	var pts metric.PointSet
	for i := 0; i < 12; i++ {
		pts = append(pts, randomPoint(emdP.Space, src))
	}
	withSync, err := NewSet(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if snap := withSync.Snapshot(); snap.EMDMessage != nil || snap.EMDFingerprint != 0 {
		t.Fatal("a set with Sync has an EMD message before its first serve")
	}
	served, _ := serveEMD(t, withSync, 0)
	requireBuiltMessage(t, emdP, served)
	if err := withSync.Add(randomPoint(emdP.Space, src)); err != nil {
		t.Fatal(err)
	}
	requireBuiltMessage(t, emdP, withSync.Snapshot())

	cfg.Gap, cfg.Sync = nil, nil
	emdOnly, err := NewSet(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	eager := emdOnly.Snapshot()
	if !bytes.Equal(eager.EMDMessage, served.EMDMessage) || eager.EMDFingerprint != served.EMDFingerprint {
		t.Fatal("a set without Sync does not carry the message of a served set with the same points")
	}
}

// TestSyncSetBuildsEMDOnFirstServe: a set with Sync keys no point into
// an EMD sketch until it is first served, so its snapshots carry no
// message before that; the first serve's message is byte-identical to a
// from-scratch build over its points; and from the build epoch on it
// serves exactly the deltas of a twin whose sketch existed from
// creation, while a peer from before the build gets none.
func TestSyncSetBuildsEMDOnFirstServe(t *testing.T) {
	cfg := testConfig()
	emdP := *cfg.EMD
	src := rng.New(41)
	var initial metric.PointSet
	for i := 0; i < 16; i++ {
		initial = append(initial, randomPoint(emdP.Space, src))
	}
	lazy, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	serveEMD(t, twin, 0)
	pool := initial.Clone()
	step := func() {
		t.Helper()
		pt := randomPoint(emdP.Space, src)
		ops := []Op{{Point: pt}, {Remove: true, Point: pool[0]}}
		pool = append(pool[1:], pt)
		for _, s := range []*Set{lazy, twin} {
			if err := s.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}

	before := lazy.Snapshot()
	if before.EMDMessage != nil || before.EMDFingerprint != 0 {
		t.Fatal("a set with Sync built its EMD sketch before any serve")
	}
	served, delta := serveEMD(t, lazy, 1)
	built := served.Epoch
	if served == before || built != before.Epoch || served.EMDMessage == nil {
		t.Fatal("the first serve did not replace the cached snapshot with one carrying the message at the same epoch")
	}
	if delta != nil {
		t.Fatal("the first serve offered a delta from before the sketch was built")
	}
	requireBuiltMessage(t, emdP, served)
	if again, delta := serveEMD(t, lazy, built); again != served || lazy.Snapshot() != served || delta == nil {
		t.Fatal("a second serve at the same epoch did not share the cached snapshot with an empty delta")
	}

	cached, err := emd.DecodeSketch(emdP, served.EMDMessage)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		step()
	}
	now, delta := serveEMD(t, lazy, built)
	twinNow, twinDelta := serveEMD(t, twin, built)
	if delta == nil || !bytes.Equal(delta, twinDelta) || !bytes.Equal(now.EMDMessage, twinNow.EMDMessage) {
		t.Fatalf("delta from the build epoch: %d bytes, twin's %d bytes", len(delta), len(twinDelta))
	}
	if err := cached.ApplyCells(delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Encode(), now.EMDMessage) {
		t.Fatal("patching the first served sketch with the delta does not give the current message")
	}
	if _, delta := serveEMD(t, lazy, built-1); delta != nil {
		t.Fatal("a peer from before the build epoch was offered a delta")
	}
	if _, delta := serveEMD(t, twin, built-1); delta == nil {
		t.Fatal("the eager twin should cover the epoch before the build")
	}
}

// TestSyncSetRefusesUnbuildableEMD: a set with Sync builds its sketch
// only when served, yet creation still refuses EMD params that cannot
// build one (here s, the number of MLSH draws, is far above the cap).
func TestSyncSetRefusesUnbuildableEMD(t *testing.T) {
	cfg := testConfig()
	p := *cfg.EMD
	p.D1, p.D2 = 1, 1e7
	cfg.EMD = &p
	if err := emd.CheckParams(p); err == nil {
		t.Fatal("emd.CheckParams accepted params whose plan cannot be derived")
	}
	if _, err := NewSet(cfg, nil); err == nil {
		t.Fatal("NewSet accepted a Sync set whose EMD sketch cannot be built")
	}
	cfg.Sync = nil
	if _, err := NewSet(cfg, nil); err == nil {
		t.Fatal("NewSet accepted a set whose EMD sketch cannot be built")
	}
}

// TestConcurrentEMDServe has servers make live-emd serves of a set with
// Sync until writers have finished churning it: the first serves race
// to build the sketch, and each later one asks for the delta since the
// server's own previous serve. Every snapshot served must carry the
// message of exactly its own points, and every delta, patched into the
// sketch decoded from the earlier message, must give the served message
// and fingerprint. Run under -race, it also checks that the build, the
// snapshot cache, the read-locked delta encoding and the mutations are
// properly synchronized.
func TestConcurrentEMDServe(t *testing.T) {
	cfg := testConfig()
	emdP := *cfg.EMD
	src := rng.New(77)
	var initial metric.PointSet
	for i := 0; i < 16; i++ {
		initial = append(initial, randomPoint(emdP.Space, src))
	}
	ls, err := NewSet(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	const writers, servers, churns = 2, 4, 16
	extra := make([]metric.PointSet, writers)
	for w := range extra {
		for i := 0; i < churns; i++ {
			extra[w] = append(extra[w], randomPoint(emdP.Space, src))
		}
	}
	type serve struct {
		prev, snap *Snapshot
		delta      []byte
	}
	got := make([][]serve, servers)
	errs := make(chan error, writers+servers)
	start, churned := make(chan struct{}), make(chan struct{})
	var wg, writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writing.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Done()
			<-start
			for _, pt := range extra[w] {
				if err := ls.Add(pt); err != nil {
					errs <- err
					return
				}
				if err := ls.Remove(pt); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < servers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			var prev *Snapshot
			for last := false; !last; {
				select {
				case <-churned:
					last = true // one serve after the final epoch
				default:
				}
				var since uint64
				if prev != nil {
					since = prev.Epoch
				}
				snap, delta, err := ls.ServeEMD(since)
				if err != nil {
					errs <- err
					return
				}
				if prev == nil || snap != prev || last {
					got[r] = append(got[r], serve{prev: prev, snap: snap, delta: delta})
				}
				prev = snap
				runtime.Gosched()
			}
		}(r)
	}
	close(start)
	writing.Wait()
	close(churned)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checked := make(map[*Snapshot]bool)
	patched := make(map[[2]*Snapshot]bool)
	for _, serves := range got {
		for _, sv := range serves {
			if !checked[sv.snap] {
				checked[sv.snap] = true
				requireBuiltMessage(t, emdP, sv.snap)
			}
			if patched[[2]*Snapshot{sv.prev, sv.snap}] {
				continue
			}
			patched[[2]*Snapshot{sv.prev, sv.snap}] = true
			if sv.prev == nil {
				if sv.delta != nil {
					t.Fatal("a serve for a peer with no cache was offered a delta")
				}
				continue
			}
			if sv.delta == nil {
				if sv.snap.Epoch-sv.prev.Epoch <= journalEpochs {
					t.Fatalf("no delta from epoch %d to %d, within the journal horizon", sv.prev.Epoch, sv.snap.Epoch)
				}
				continue
			}
			sk, err := emd.DecodeSketch(emdP, sv.prev.EMDMessage)
			if err != nil {
				t.Fatal(err)
			}
			if err := sk.ApplyCells(sv.delta); err != nil {
				t.Fatal(err)
			}
			if msg := sk.Encode(); !bytes.Equal(msg, sv.snap.EMDMessage) || emd.FingerprintMessage(msg) != sv.snap.EMDFingerprint {
				t.Fatalf("delta from epoch %d does not patch to the message of epoch %d", sv.prev.Epoch, sv.snap.Epoch)
			}
		}
	}
	t.Logf("%d distinct served snapshots and %d (earlier, served) pairs checked", len(checked), len(patched))
}

// TestAddServeBytes: one Add plus the next live-emd serve allocates the
// new epoch's message and delta, not a copy of the sketch: at 64 points
// of d = 128 with capacity 256 and k = 4, the bytes stay within twice
// the message plus 64 KiB, well below the cells the sketch holds.
func TestAddServeBytes(t *testing.T) {
	space := metric.HammingCube(128)
	p := emd.DefaultParams(space, 256, 4, 11)
	src := rng.New(12)
	const runs = 10
	var pts metric.PointSet
	for i := 0; i < 64+runs; i++ {
		pts = append(pts, randomPoint(space, src))
	}
	ls, err := NewSet(Config{EMD: &p}, pts[:64])
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := serveEMD(t, ls, 0)
	next := 64
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := ls.Add(pts[next]); err != nil {
			t.Fatal(err)
		}
		next++
		snap, _ = serveEMD(t, ls, snap.Epoch)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	sk, err := emd.DecodeSketch(p, snap.EMDMessage)
	if err != nil {
		t.Fatal(err)
	}
	cellBytes := sk.Levels() * sk.Cells() * (3 + space.Dim) * 8
	limit := uint64(2*len(snap.EMDMessage) + 64<<10)
	t.Logf("Add plus serve: %d bytes; message %d bytes, sketch cells %d bytes", perRun, len(snap.EMDMessage), cellBytes)
	if perRun > limit {
		t.Fatalf("Add plus serve allocated %d bytes, want at most 2·%d + 64 KiB = %d", perRun, len(snap.EMDMessage), limit)
	}
}

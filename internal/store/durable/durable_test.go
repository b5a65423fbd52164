package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emd"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

const testSyncSeed = 0x5eed

func testSpace() metric.Space { return metric.HammingCube(32) }

// testConfig enables every structure so recovery is exercised against
// the full sketch stack.
func testConfig(capacity int) live.Config {
	p := emd.DefaultParams(testSpace(), capacity, 4, 7)
	return live.Config{
		EMD:  &p,
		Sync: &live.SyncConfig{Seed: testSyncSeed},
	}
}

// openTestStore opens a durable store over a test temp dir with an
// aggressive snapshot cadence so compactions interleave the journal.
func openTestStore(t testing.TB, dir string, every int) *Store {
	t.Helper()
	d, err := Open(dir, Options{Fsync: FsyncOff, SnapshotEvery: every, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return d
}

// churn drives n random mutations (adds, removes, batches) through the
// set, deterministically from seed, and returns how many were applied.
// It tracks removal candidates itself (building a Snapshot per epoch
// just to pick a victim would dominate the test's runtime).
func churn(t testing.TB, ls *live.Set, seed uint64, n int) int {
	t.Helper()
	src := rng.New(seed)
	space := testSpace()
	pool := ls.Snapshot().Points.Clone()
	applied := 0
	for i := 0; i < n; i++ {
		switch src.Intn(4) {
		case 0: // remove a random current point when possible
			if len(pool) == 0 {
				continue
			}
			j := src.Intn(len(pool))
			if err := ls.Remove(pool[j]); err != nil {
				t.Fatalf("remove: %v", err)
			}
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		case 1: // batch: one add + one remove of an existing point
			add := workload.RandomPoint(space, src)
			ops := []live.Op{{Point: add}}
			j := -1
			if len(pool) > 0 {
				j = src.Intn(len(pool))
				ops = append(ops, live.Op{Remove: true, Point: pool[j]})
			}
			if err := ls.ApplyBatch(ops); err != nil {
				t.Fatalf("batch: %v", err)
			}
			if j >= 0 {
				pool[j] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			}
			pool = append(pool, add)
		default:
			add := workload.RandomPoint(space, src)
			if err := ls.Add(add); err != nil {
				t.Fatalf("add: %v", err)
			}
			pool = append(pool, add)
		}
		applied++
	}
	return applied
}

// served returns the set's live-emd snapshot, building its EMD sketch
// if the set has not been served yet.
func served(t *testing.T, ls *live.Set) *live.Snapshot {
	t.Helper()
	snap, _, err := ls.ServeEMD(0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// requireWireIdentical asserts that two sets serve bit-identical wire
// state: EMD message bytes (as a live-emd serve sends them), ID
// fingerprints and lists, and epoch.
func requireWireIdentical(t *testing.T, want, got *live.Set) {
	t.Helper()
	ws, gs := served(t, want), served(t, got)
	if ws.Epoch != gs.Epoch {
		t.Fatalf("epoch: recovered %d, want %d", gs.Epoch, ws.Epoch)
	}
	wMsg, wFP := ws.EMDMessage, ws.EMDFingerprint
	gMsg, gFP := gs.EMDMessage, gs.EMDFingerprint
	if !bytes.Equal(wMsg, gMsg) {
		t.Fatalf("EMD message diverged (%d vs %d bytes)", len(gMsg), len(wMsg))
	}
	if wFP != gFP {
		t.Fatalf("EMD fingerprint: %016x, want %016x", gFP, wFP)
	}
	if ws.IDFingerprint != gs.IDFingerprint {
		t.Fatalf("ID fingerprint: %016x, want %016x", gs.IDFingerprint, ws.IDFingerprint)
	}
	if len(ws.IDs) != len(gs.IDs) {
		t.Fatalf("ID count: %d, want %d", len(gs.IDs), len(ws.IDs))
	}
	for i := range ws.IDs {
		if ws.IDs[i] != gs.IDs[i] {
			t.Fatalf("ID order diverged at %d", i)
		}
	}
}

// TestRecoveryGolden is the acceptance golden test: ≥1000 random
// mutations with interleaved snapshot compactions, a crash (no drain),
// and a recovery that must serve wire-bit-identical sketches versus a
// never-crashed set fed the same history.
func TestRecoveryGolden(t *testing.T) {
	dir := t.TempDir()
	space := testSpace()
	initial := workload.RandomSet(space, 64, rng.New(1))
	cfg := testConfig(1024)

	// Reference: never crashed, no persistence.
	ref, err := live.NewSet(cfg, initial)
	if err != nil {
		t.Fatalf("reference set: %v", err)
	}

	// Durable twin: snapshot every 64 records so ~1000 mutations cross
	// many compaction boundaries.
	d := openTestStore(t, dir, 64)
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("golden", cfg, initial)
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	const mutations = 1200
	if n := churn(t, ref, 99, mutations); n != mutations {
		t.Fatalf("reference churn applied %d", n)
	}
	if n := churn(t, ls, 99, mutations); n != mutations {
		t.Fatalf("durable churn applied %d", n)
	}
	requireWireIdentical(t, ref, ls)

	// Crash without draining, recover into a fresh registry.
	d.Crash()
	d2 := openTestStore(t, dir, 64)
	st2 := store.New()
	stats, err := d2.Recover(st2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.Sets != 1 || stats.LostBytes != 0 {
		t.Fatalf("unexpected recovery stats: %v", stats)
	}
	st2.SetPersister(d2)
	rec, ok := st2.Get("golden")
	if !ok {
		t.Fatalf("recovered store is missing the set")
	}
	requireWireIdentical(t, ref, rec)

	// The recovered set must journal further mutations: churn both
	// again and crash-recover a second time.
	if n := churn(t, ref, 7, 300); n != 300 {
		t.Fatalf("reference churn applied %d", n)
	}
	if n := churn(t, rec, 7, 300); n != 300 {
		t.Fatalf("recovered churn applied %d", n)
	}
	d2.Crash()
	d3 := openTestStore(t, dir, 64)
	st3 := store.New()
	if _, err := d3.Recover(st3); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	rec3, _ := st3.Get("golden")
	if rec3 == nil {
		t.Fatalf("second recovery is missing the set")
	}
	requireWireIdentical(t, ref, rec3)
	d3.Close()
}

// TestRecoveryServesSameEMDMessage: a set with Sync and EMD replays its
// journal without keying a point into an EMD sketch, even if it was
// served before the crash, and its first live-emd serve afterwards is
// byte-identical to that of a never-crashed set that ran the same op
// stream with its sketch maintained throughout. A peer that synced
// before the crash is offered no delta.
func TestRecoveryServesSameEMDMessage(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1024)
	initial := workload.RandomSet(testSpace(), 64, rng.New(4))
	ref, err := live.NewSet(cfg, initial)
	if err != nil {
		t.Fatalf("reference set: %v", err)
	}
	served(t, ref) // from creation on, every op keys the reference's sketch

	d := openTestStore(t, dir, 64)
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("served", cfg, initial)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	churn(t, ref, 21, 300)
	churn(t, ls, 21, 300)
	peerEpoch := served(t, ls).Epoch
	churn(t, ref, 22, 300)
	churn(t, ls, 22, 300)
	d.Crash()

	d2 := openTestStore(t, dir, 64)
	defer d2.Close()
	st2 := store.New()
	if _, err := d2.Recover(st2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec, ok := st2.Get("served")
	if !ok {
		t.Fatal("recovered store is missing the set")
	}
	if rec.Snapshot().EMDMessage != nil {
		t.Fatal("recovery keyed the replayed ops into an EMD sketch")
	}
	requireWireIdentical(t, ref, rec)
	if _, delta, err := rec.ServeEMD(peerEpoch); err != nil || delta != nil {
		t.Fatalf("a peer synced before the crash was offered a delta (err %v)", err)
	}
}

// TestRecoveryAfterDrain verifies the snapshot-on-drain path: a closed
// store recovers with zero journal replay.
func TestRecoveryAfterDrain(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1024)
	initial := workload.RandomSet(testSpace(), 32, rng.New(2))
	d := openTestStore(t, dir, DefaultSnapshotEvery)
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("drain", cfg, initial)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	churn(t, ls, 5, 200)
	wantEpoch := ls.Epoch()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d2 := openTestStore(t, dir, DefaultSnapshotEvery)
	st2 := store.New()
	stats, err := d2.Recover(st2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.Replayed != 0 {
		t.Fatalf("drained store replayed %d records, want 0", stats.Replayed)
	}
	rec, _ := st2.Get("drain")
	if rec == nil || rec.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch mismatch")
	}
	d2.Close()
}

// corruptingSetup builds a one-set store, churns it, crashes, and
// returns the data dir plus the set's wal files for tampering.
func corruptingSetup(t *testing.T) (dir string, wals []string) {
	t.Helper()
	dir = t.TempDir()
	cfg := testConfig(1024)
	d := openTestStore(t, dir, -1) // no auto-compaction: one long journal
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("victim", cfg, workload.RandomSet(testSpace(), 16, rng.New(3)))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	churn(t, ls, 11, 120)
	d.Crash()
	setDir := filepath.Join(dir, "sets", setDirName("victim"))
	for _, gen := range listGenerations(setDir) {
		if gen.wal {
			wals = append(wals, filepath.Join(setDir, gen.file))
		}
	}
	if len(wals) == 0 {
		t.Fatalf("no wal files written")
	}
	return dir, wals
}

// recoverVictim recovers the tampered store and returns the stats and
// the recovered set.
func recoverVictim(t *testing.T, dir string) (RecoveryStats, *live.Set) {
	t.Helper()
	d := openTestStore(t, dir, -1)
	st := store.New()
	stats, err := d.Recover(st)
	if err != nil {
		t.Fatalf("recover after tampering: %v", err)
	}
	ls, ok := st.Get("victim")
	if !ok {
		t.Fatalf("victim not recovered")
	}
	d.Close()
	return stats, ls
}

// TestRecoveryTornTail cuts the journal mid-frame: recovery must stop
// cleanly at the cut, losing only the tail.
func TestRecoveryTornTail(t *testing.T) {
	dir, wals := corruptingSetup(t)
	wal := wals[len(wals)-1]
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(raw) - len(raw)/3
	if err := os.WriteFile(wal, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	stats, ls := recoverVictim(t, dir)
	if stats.LostBytes == 0 {
		t.Fatalf("torn tail not detected: %v", stats)
	}
	// The survivor keeps serving; the next boot must see the repaired
	// (re-compacted) generation with nothing left to replay.
	if ls.Size() == 0 {
		t.Fatalf("recovered set empty")
	}
	stats2, _ := recoverVictim(t, dir)
	if stats2.LostBytes != 0 || stats2.Replayed != 0 {
		t.Fatalf("repair not sealed: %v", stats2)
	}
}

// TestRecoveryBitFlip flips a payload byte: the checksum must reject
// the record and recovery stops there.
func TestRecoveryBitFlip(t *testing.T) {
	dir, wals := corruptingSetup(t)
	wal := wals[len(wals)-1]
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, ls := recoverVictim(t, dir)
	if stats.LostBytes == 0 {
		t.Fatalf("bit flip not detected: %v", stats)
	}
	if ls.Size() == 0 {
		t.Fatalf("recovered set empty")
	}
}

// TestRecoveryHostileLength writes an absurd length prefix over a
// frame: recovery must reject it before allocating and stop cleanly.
func TestRecoveryHostileLength(t *testing.T) {
	dir, wals := corruptingSetup(t)
	wal := wals[len(wals)-1]
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[0:4], 0xfffffff0)
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, ls := recoverVictim(t, dir)
	if stats.LostBytes != int64(len(raw)) {
		t.Fatalf("hostile length: lost %d bytes, want the whole journal %d", stats.LostBytes, len(raw))
	}
	if ls.Size() == 0 {
		t.Fatalf("recovered set empty")
	}
}

// TestRecoveryCorruptSnapshotFallsBack corrupts the newest snapshot:
// recovery must fall back to an older generation plus its journal.
func TestRecoveryCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1024)
	d := openTestStore(t, dir, 40)
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("victim", cfg, workload.RandomSet(testSpace(), 16, rng.New(4)))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	churn(t, ls, 13, 150)
	wantEpoch, wantFP := ls.Epoch(), ls.IDFingerprint()
	d.Crash()
	setDir := filepath.Join(dir, "sets", setDirName("victim"))
	var snaps []generation
	for _, gen := range listGenerations(setDir) {
		if !gen.wal {
			snaps = append(snaps, gen)
		}
	}
	// With SnapshotEvery=40 and 150 mutations there are multiple
	// generations only until compaction deletes them; the invariant we
	// exploit is that the *current* snapshot plus the current wal
	// coexist. Corrupt the newest snapshot's payload.
	newest := filepath.Join(setDir, snaps[len(snaps)-1].file)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openTestStore(t, dir, 40)
	st2 := store.New()
	stats, err := d2.Recover(st2)
	if err != nil {
		// With no older snapshot on disk the set is genuinely
		// unrecoverable; that must surface as an error, not a panic.
		t.Skipf("no fallback generation on disk (stats %v): %v", stats, err)
	}
	if stats.CorruptSnapshots == 0 {
		t.Fatalf("corrupt snapshot not counted: %v", stats)
	}
	rec, _ := st2.Get("victim")
	if rec == nil {
		t.Fatalf("victim not recovered")
	}
	// Fallback replays the journal above the older snapshot, which
	// still contains everything up to the crash: full state recovered.
	if rec.Epoch() != wantEpoch || rec.IDFingerprint() != wantFP {
		t.Fatalf("fallback recovered epoch %d fp %016x, want %d %016x",
			rec.Epoch(), rec.IDFingerprint(), wantEpoch, wantFP)
	}
	d2.Close()
}

// TestDropRemovesState verifies Drop deletes the on-disk directory and
// a recovery afterwards sees nothing.
func TestDropRemovesState(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, DefaultSnapshotEvery)
	st := store.New()
	st.SetPersister(d)
	if _, err := st.Create("gone", testConfig(256), workload.RandomSet(testSpace(), 8, rng.New(5))); err != nil {
		t.Fatalf("create: %v", err)
	}
	if !st.Drop("gone") {
		t.Fatalf("drop reported absent")
	}
	if _, err := os.Stat(filepath.Join(dir, "sets", setDirName("gone"))); !os.IsNotExist(err) {
		t.Fatalf("set directory survived drop: %v", err)
	}
	d.Close()
	d2 := openTestStore(t, dir, DefaultSnapshotEvery)
	st2 := store.New()
	stats, err := d2.Recover(st2)
	if err != nil || stats.Sets != 0 {
		t.Fatalf("recovery after drop: %v %v", stats, err)
	}
	d2.Close()
}

// TestJournalErrorAbortsMutation verifies the WAL contract: when the
// journal cannot be written, the in-memory set must not advance.
func TestJournalErrorAbortsMutation(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, DefaultSnapshotEvery)
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create("wal", testConfig(256), workload.RandomSet(testSpace(), 8, rng.New(6)))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	epoch, size := ls.Epoch(), ls.Size()
	d.Crash() // journal closed: every append now fails
	if err := ls.Add(workload.RandomPoint(testSpace(), rng.New(8))); err == nil {
		t.Fatalf("add succeeded with a dead journal")
	}
	if ls.Epoch() != epoch || ls.Size() != size {
		t.Fatalf("failed mutation leaked state: epoch %d→%d size %d→%d", epoch, ls.Epoch(), size, ls.Size())
	}
}

// TestConfigRoundTrip checks the persisted-config codec over the
// structure combinations the daemons actually create, and that a config
// in the previous layout is refused by its magic.
func TestConfigRoundTrip(t *testing.T) {
	p := emd.DefaultParams(testSpace(), 512, 4, 7)
	cfgs := []live.Config{
		{Sync: &live.SyncConfig{Seed: 42}},
		{EMD: &p, Sync: &live.SyncConfig{Seed: testSyncSeed}},
	}
	for i, cfg := range cfgs {
		e := transport.NewEncoder()
		encodeConfig(e, cfg)
		payload, _ := e.Pack()
		got, err := decodeConfig(transport.NewDecoder(payload))
		if err != nil {
			t.Fatalf("cfg %d: decode: %v", i, err)
		}
		if (got.EMD == nil) != (cfg.EMD == nil) || (got.Sync == nil) != (cfg.Sync == nil) {
			t.Fatalf("cfg %d: shape mismatch", i)
		}
		if cfg.EMD != nil && (*got.EMD != *cfg.EMD) {
			t.Fatalf("cfg %d: EMD params mismatch:\n got %+v\nwant %+v", i, *got.EMD, *cfg.EMD)
		}
		if cfg.Sync != nil && *got.Sync != *cfg.Sync {
			t.Fatalf("cfg %d: sync mismatch", i)
		}
	}

	// The previous layout of {Sync: {Seed: 42}}: magic "RCF" + 1, a
	// journal horizon of 256, no EMD, no gap, then 80 strata cells.
	e := transport.NewEncoder()
	e.WriteBits(0x52434601, 32)
	e.WriteUvarint(256)
	e.WriteBool(false)
	e.WriteBool(false)
	e.WriteBool(true)
	e.WriteUvarint(80)
	e.WriteUint64(42)
	old, _ := e.Pack()
	_, err := decodeConfig(transport.NewDecoder(old))
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "52434601") || !strings.Contains(err.Error(), "52434602") {
		t.Fatalf("old-layout config: err = %v, want a magic mismatch naming both magics", err)
	}
}

// readTree snapshots a directory tree's regular files into memory.
func readTree(b *testing.B, dir string) map[string][]byte {
	b.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = raw
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// restoreTree rewrites the tree captured by readTree, removing files
// that appeared since.
func restoreTree(b *testing.B, dir string, image map[string][]byte) {
	b.Helper()
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if rel, err := filepath.Rel(dir, path); err == nil {
			if _, keep := image[rel]; !keep {
				os.Remove(path)
			}
		}
		return nil
	})
	for rel, raw := range image {
		if err := os.WriteFile(filepath.Join(dir, rel), raw, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryReplay measures journal replay rate: points/sec
// rebuilding a set from disk, with compaction disabled (snapshots=off:
// the whole history replays) and enabled (snapshots=on: bounded tail).
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, every := range []int{-1, 128} {
		name := "snapshots=off"
		if every > 0 {
			name = "snapshots=on"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			cfg := testConfig(1024)
			d, err := Open(dir, Options{Fsync: FsyncOff, SnapshotEvery: every})
			if err != nil {
				b.Fatal(err)
			}
			st := store.New()
			st.SetPersister(d)
			ls, err := st.Create("bench", cfg, workload.RandomSet(testSpace(), 128, rng.New(9)))
			if err != nil {
				b.Fatal(err)
			}
			const mutations = 1000
			churn(b, ls, 17, mutations)
			d.Crash()
			// Recovery re-compacts (sealing the journal), so restore
			// the pristine crash image before every iteration, off the
			// clock.
			image := readTree(b, dir)
			var replayed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restoreTree(b, dir, image)
				b.StartTimer()
				d, err := Open(dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				st := store.New()
				stats, err := d.Recover(st)
				if err != nil {
					b.Fatal(err)
				}
				d.Crash()
				replayed = stats.Replayed
			}
			b.ReportMetric(float64(replayed), "records/op")
			b.ReportMetric(float64(replayed)*float64(b.N)/b.Elapsed().Seconds(), "records-replayed/sec")
		})
	}
}

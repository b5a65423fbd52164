// Package durable shadows a store.Store on disk: every named set gets
// a write-ahead journal of its mutations plus epoch-tagged snapshots,
// and a crashed process rebuilds bit-identical reconciliation state by
// replaying the journal tail over the newest snapshot.
//
// Layout under the data directory:
//
//	<dir>/sets/set-<hex(name)>/
//	    config.bin            persisted live.Config (framed)
//	    snap-<E>.snap         full multiset at epoch E (framed)
//	    wal-<E>.log           framed journal records for epochs > E
//
// The write path is the classic WAL ordering, enforced by live.Set's
// Logger contract: a mutation is validated, journaled (fsync per
// policy), and only then applied in memory — a journal write failure
// aborts the mutation, so memory can never be ahead of disk. Every
// record carries the epoch it closes; compaction writes a snapshot at
// the current epoch E into a temp file, fsyncs, renames, then switches
// to a fresh wal-<E>.log and deletes older generations. A crash at any
// point of that sequence is safe because replay skips records at or
// below the snapshot epoch: duplicate history is ignored by epoch tag,
// not by file bookkeeping.
//
// Recovery picks the newest snapshot that decodes cleanly (falling
// back to older ones), replays every journal record above its epoch in
// order, and stops — cleanly, never panicking — at the first torn or
// corrupt frame, treating everything after it as lost tail. Recovered
// sets resume their pre-crash epoch numbering (live.RestoreEpoch), and
// recovery ends with a fresh compaction so the next boot's replay work
// is bounded regardless of how the last life ended.
package durable

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/store"
	"repro/internal/transport"
)

// FsyncPolicy selects how eagerly journal appends reach stable
// storage. Snapshots and config files are always written via
// temp-file + fsync + rename regardless of policy.
type FsyncPolicy int

const (
	// FsyncAlways syncs the journal file after every record: a
	// mutation acknowledged to the caller survives power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch syncs only at compaction and close. Appends are still
	// flushed to the OS per record, so a process crash loses nothing;
	// power loss may lose the tail since the last snapshot.
	FsyncBatch
	// FsyncOff never syncs the journal explicitly (snapshots still
	// sync). For tests and benchmarks.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|batch|off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// DefaultSnapshotEvery is the compaction cadence when Options leaves
// SnapshotEvery zero: a snapshot every this many journal records.
const DefaultSnapshotEvery = 4096

// Options tunes a durable store.
type Options struct {
	// Fsync is the journal sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SnapshotEvery compacts after this many journal records (0 means
	// DefaultSnapshotEvery; negative disables size-triggered
	// compaction — boot and drain still snapshot).
	SnapshotEvery int
	// Logf receives recovery and compaction notices (nil discards).
	Logf func(format string, args ...any)
}

// Store is the durability layer for one data directory. It implements
// store.Persister; attach it with store.SetPersister after Recover.
type Store struct {
	dir  string // <data-dir>/sets
	opt  Options
	mu   sync.Mutex
	sets map[string]*setFiles
	done bool
	// lastRecovery holds the most recent Recover pass's stats (zero
	// before any), for the operator metrics surface.
	lastRecovery RecoveryStats

	// Lifetime work counters (Metrics).
	records     atomic.Uint64
	recordBytes atomic.Uint64
	snapshots   atomic.Uint64
}

// stagingSuffix and tombstoneSuffix mark set directories mid-create
// and mid-drop. Both names fail setDirDecode, so recovery never reads
// them as live sets, and Open sweeps any that a killed process left
// behind — a crash at any point inside a create or drop leaves either
// the old complete state or no state, never a partial directory.
const (
	stagingSuffix   = ".creating"
	tombstoneSuffix = ".dropping"
)

// Open prepares the data directory (creating it if needed) and returns
// a store with no sets attached; call Recover to load persisted sets.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	sets := filepath.Join(dir, "sets")
	if err := os.MkdirAll(sets, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// Sweep creates and drops a previous life was killed in the middle
	// of: a .creating directory never became a set (its creation error
	// surfaced, or the process died before the set existed), and a
	// .dropping tombstone was already retired by the rename — both are
	// garbage, and neither may survive to confuse a later create.
	if ents, err := os.ReadDir(sets); err == nil {
		swept := false
		for _, ent := range ents {
			name := ent.Name()
			if strings.HasSuffix(name, stagingSuffix) || strings.HasSuffix(name, tombstoneSuffix) {
				os.RemoveAll(filepath.Join(sets, name))
				opt.Logf("durable: swept %s (interrupted create/drop)", name)
				swept = true
			}
		}
		if swept {
			syncDir(sets)
		}
	}
	return &Store{dir: sets, opt: opt, sets: make(map[string]*setFiles)}, nil
}

// SetDir returns the directory under the data directory dataDir that
// holds the named set's config, snapshots and journal.
func SetDir(dataDir, name string) string {
	return filepath.Join(dataDir, "sets", setDirName(name))
}

// setDirName encodes a set name into a filesystem-safe directory name.
func setDirName(name string) string { return "set-" + hex.EncodeToString([]byte(name)) }

// setDirDecode inverts setDirName; ok is false for foreign entries.
func setDirDecode(dir string) (string, bool) {
	hexPart, found := strings.CutPrefix(dir, "set-")
	if !found {
		return "", false
	}
	b, err := hex.DecodeString(hexPart)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// setFiles is one set's on-disk state: the open journal, the compaction
// mirror (the distinct points with counts, in live.Set's insertion
// order, maintained op by op so a snapshot never needs to read the live
// set — LogOps runs under the set's write lock, where calling back into
// it would deadlock), and the generation bookkeeping.
type setFiles struct {
	st   *Store
	name string
	dir  string

	mu      sync.Mutex
	file    *os.File
	walBase uint64 // epoch of the snapshot the open journal extends
	epoch   uint64 // last journaled epoch
	recs    int    // records appended since the last snapshot
	byKey   map[string]*mirrorEntry
	order   []*mirrorEntry
	scratch []byte // frame assembly buffer
	closed  bool
}

type mirrorEntry struct {
	pt    metric.Point
	count int
	pos   int
}

// LogOps implements live.Logger: frame the record, append, flush,
// fsync per policy, fold the ops into the mirror, and compact when the
// journal has grown past the snapshot cadence.
func (sf *setFiles) LogOps(epoch uint64, ops []live.Op) error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.closed {
		return fmt.Errorf("durable: set %q: journal closed", sf.name)
	}
	e := transport.NewEncoder()
	encodeRecord(e, epoch, ops)
	payload, _ := e.Pack()
	sf.scratch = appendFrame(sf.scratch[:0], payload)
	_, err := sf.file.Write(sf.scratch)
	transport.Recycle(e, payload)
	if err != nil {
		return fmt.Errorf("durable: set %q: append: %w", sf.name, err)
	}
	sf.st.records.Add(1)
	sf.st.recordBytes.Add(uint64(len(sf.scratch)))
	if sf.st.opt.Fsync == FsyncAlways {
		if err := sf.file.Sync(); err != nil {
			return fmt.Errorf("durable: set %q: sync: %w", sf.name, err)
		}
	}
	sf.applyMirror(ops)
	sf.epoch = epoch
	sf.recs++
	if n := sf.st.opt.SnapshotEvery; n > 0 && sf.recs >= n {
		if err := sf.compactLocked(sf.epoch); err != nil {
			// The record itself is durable; losing the compaction only
			// costs replay time, so the mutation still succeeds.
			sf.st.opt.Logf("durable: set %q: compaction failed: %v", sf.name, err)
		}
	}
	return nil
}

// applyMirror folds a validated op batch into the compaction mirror,
// with exactly live.Set's entry semantics (insertion order, swap-
// remove on last copy) so snapshots written from the mirror list
// points in the same order the live set would.
func (sf *setFiles) applyMirror(ops []live.Op) {
	for _, op := range ops {
		k := op.Point.Key()
		en := sf.byKey[k]
		if op.Remove {
			if en == nil {
				continue // validated upstream; defensive
			}
			en.count--
			if en.count == 0 {
				last := len(sf.order) - 1
				sf.order[en.pos] = sf.order[last]
				sf.order[en.pos].pos = en.pos
				sf.order = sf.order[:last]
				delete(sf.byKey, k)
			}
			continue
		}
		if en == nil {
			en = &mirrorEntry{pt: op.Point.Clone(), pos: len(sf.order)}
			sf.byKey[k] = en
			sf.order = append(sf.order, en)
		}
		en.count++
	}
}

func (sf *setFiles) snapPath(epoch uint64) string {
	return filepath.Join(sf.dir, fmt.Sprintf("snap-%020d.snap", epoch))
}

func (sf *setFiles) walPath(epoch uint64) string {
	return filepath.Join(sf.dir, fmt.Sprintf("wal-%020d.log", epoch))
}

// compactLocked seals the current generation at epoch: write the
// snapshot durably, switch the journal to wal-<epoch>.log, delete
// older generations. Crash-safe at every step — replay skips by epoch
// tag, so a half-finished compaction only leaves redundant files.
func (sf *setFiles) compactLocked(epoch uint64) error {
	entries := make([]snapEntry, len(sf.order))
	for i, en := range sf.order {
		entries[i] = snapEntry{pt: en.pt, count: en.count}
	}
	e := transport.NewEncoder()
	encodeSnapshot(e, epoch, entries)
	payload, _ := e.Pack()
	frame := appendFrame(nil, payload)
	transport.Recycle(e, payload)
	if err := writeFileDurable(sf.snapPath(epoch), frame); err != nil {
		return err
	}
	sf.st.snapshots.Add(1)
	// O_TRUNC: a crash after a previous snapshot at this same epoch may
	// have left a stale wal-<epoch>.log; its records are ≤ epoch and
	// already covered by the snapshot just written.
	f, err := os.OpenFile(sf.walPath(epoch), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if sf.file != nil {
		if sf.st.opt.Fsync != FsyncOff {
			sf.file.Sync()
		}
		sf.file.Close()
	}
	sf.file = f
	sf.walBase = epoch
	sf.recs = 0
	// Older generations are garbage now; removal failures cost disk,
	// not correctness.
	for _, gen := range listGenerations(sf.dir) {
		if gen.epoch < epoch {
			os.Remove(filepath.Join(sf.dir, gen.file))
		}
	}
	syncDir(sf.dir)
	return nil
}

// closeLocked shuts the journal; with drain set it first compacts at
// the current epoch so the next recovery replays nothing.
func (sf *setFiles) closeLocked(drain bool) error {
	if sf.closed {
		return nil
	}
	var err error
	if drain && sf.recs > 0 {
		err = sf.compactLocked(sf.epoch)
	}
	if sf.file != nil {
		if sf.st.opt.Fsync != FsyncOff {
			sf.file.Sync()
		}
		if cerr := sf.file.Close(); err == nil {
			err = cerr
		}
		sf.file = nil
	}
	sf.closed = true
	return err
}

// generation is one parsed snapshot or journal filename.
type generation struct {
	file  string
	epoch uint64
	wal   bool
}

// listGenerations parses the snapshot/journal files in a set directory,
// sorted by epoch ascending (wal after snap at equal epoch).
func listGenerations(dir string) []generation {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []generation
	for _, ent := range ents {
		name := ent.Name()
		var num string
		g := generation{file: name}
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			num = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			num = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
			g.wal = true
		default:
			continue
		}
		ep, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		g.epoch = ep
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool {
		if gens[i].epoch != gens[j].epoch {
			return gens[i].epoch < gens[j].epoch
		}
		return !gens[i].wal && gens[j].wal
	})
	return gens
}

// writeFileDurable writes data via temp file + fsync + rename, so the
// target path only ever names a complete file.
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable;
// best-effort (some filesystems reject it).
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// OnCreate implements store.Persister: persist the configuration,
// snapshot the initial points at epoch 1 (live.NewSet starts there),
// open the journal, and hand back the set's write-ahead logger. The
// whole creation is staged under a .creating name and renamed into
// place only once the first generation is sealed, so a mid-create
// failure — an unwritable disk, a rejected live config upstream, or a
// process kill — rolls back to nothing: no orphaned WAL or snapshot
// files, no open journal handle, and the name immediately reusable.
func (d *Store) OnCreate(name string, cfg live.Config, initial metric.PointSet) (live.Logger, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return nil, fmt.Errorf("durable: store closed")
	}
	if _, dup := d.sets[name]; dup {
		return nil, fmt.Errorf("durable: set %q already persisted", name)
	}
	dir := filepath.Join(d.dir, setDirName(name))
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("durable: set %q: directory %s already exists (unrecovered state?)", name, dir)
	}
	stage := dir + stagingSuffix
	os.RemoveAll(stage) // leftovers of an earlier failed create of this name
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return nil, err
	}
	sf := &setFiles{st: d, name: name, dir: stage, byKey: make(map[string]*mirrorEntry)}
	rollback := func(err error) (live.Logger, error) {
		sf.mu.Lock()
		sf.closeLocked(false)
		sf.mu.Unlock()
		os.RemoveAll(stage)
		return nil, err
	}
	e := transport.NewEncoder()
	encodeConfig(e, cfg)
	payload, _ := e.Pack()
	frame := appendFrame(nil, payload)
	transport.Recycle(e, payload)
	if err := writeFileDurable(filepath.Join(stage, "config.bin"), frame); err != nil {
		return rollback(err)
	}
	var ops []live.Op
	for _, pt := range initial {
		ops = append(ops, live.Op{Point: pt})
	}
	sf.applyMirror(ops)
	sf.epoch = 1
	if err := sf.compactLocked(1); err != nil {
		return rollback(err)
	}
	if err := os.Rename(stage, dir); err != nil {
		return rollback(err)
	}
	// The open journal fd survives the directory rename; only future
	// path derivations (snapshots, generation listings) need the final
	// location.
	sf.dir = dir
	syncDir(d.dir)
	d.sets[name] = sf
	return sf, nil
}

// OnDrop implements store.Persister: close the journal and delete the
// set's directory — atomically retired first by renaming it to a
// .dropping tombstone, so a kill mid-removal leaves a name recovery
// ignores and the next Open sweeps, never a partial set directory that
// would brick or resurrect on boot.
func (d *Store) OnDrop(name string) {
	d.mu.Lock()
	sf := d.sets[name]
	delete(d.sets, name)
	d.mu.Unlock()
	if sf != nil {
		sf.mu.Lock()
		sf.closeLocked(false)
		sf.mu.Unlock()
	}
	dir := filepath.Join(d.dir, setDirName(name))
	tomb := dir + tombstoneSuffix
	os.RemoveAll(tomb) // a stale tombstone never blocks the rename
	if err := os.Rename(dir, tomb); err == nil {
		os.RemoveAll(tomb)
	}
	syncDir(d.dir)
}

// Metrics counts the durability layer's lifetime work — the WAL and
// snapshot counters the operator surface (admin /metrics) exports.
type Metrics struct {
	// Records and RecordBytes total journal appends: committed
	// mutation frames and their on-disk size (length prefixes and
	// checksums included).
	Records     uint64
	RecordBytes uint64
	// Snapshots counts snapshot files written: creation seals, cadence
	// compactions, recovery re-seals, and drain.
	Snapshots uint64
	// Recovery is the most recent Recover pass's stats (zero before
	// any).
	Recovery RecoveryStats
}

// Metrics snapshots the store's counters.
func (d *Store) Metrics() Metrics {
	d.mu.Lock()
	rec := d.lastRecovery
	d.mu.Unlock()
	return Metrics{
		Records:     d.records.Load(),
		RecordBytes: d.recordBytes.Load(),
		Snapshots:   d.snapshots.Load(),
		Recovery:    rec,
	}
}

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	Sets             int   // sets rebuilt
	Replayed         int   // journal records applied
	Skipped          int   // records at or below their snapshot epoch
	LostBytes        int64 // torn/corrupt journal tail discarded
	CorruptSnapshots int   // snapshot files that failed to decode
}

// String formats the stats for log lines.
func (s RecoveryStats) String() string {
	return fmt.Sprintf("%d sets, %d records replayed (%d skipped), %d tail bytes lost, %d corrupt snapshots",
		s.Sets, s.Replayed, s.Skipped, s.LostBytes, s.CorruptSnapshots)
}

// Recover rebuilds every persisted set and registers it in st. Each
// set is restored from its newest cleanly-decoding snapshot plus the
// journal records above that epoch, replayed in epoch order; replay
// stops at the first torn or corrupt frame and the surviving state is
// immediately re-compacted, so the repaired generation is durable
// before the set serves traffic. Call before SetPersister-driven
// creations; sets that recover are journaled through this store again.
func (d *Store) Recover(st *store.Store) (RecoveryStats, error) {
	var stats RecoveryStats
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return stats, fmt.Errorf("durable: %w", err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name, ok := setDirDecode(ent.Name())
		if !ok {
			continue
		}
		if err := d.recoverSet(st, name, filepath.Join(d.dir, ent.Name()), &stats); err != nil {
			return stats, fmt.Errorf("durable: set %q: %w", name, err)
		}
		stats.Sets++
	}
	d.mu.Lock()
	d.lastRecovery = stats
	d.mu.Unlock()
	return stats, nil
}

// recoverSet rebuilds one set directory.
func (d *Store) recoverSet(st *store.Store, name, dir string, stats *RecoveryStats) error {
	cfgRaw, err := os.ReadFile(filepath.Join(dir, "config.bin"))
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	payload, _, err := nextFrame(cfgRaw, 0)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	dec := transport.NewDecoder(payload)
	cfg, err := decodeConfig(dec)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}

	gens := listGenerations(dir)
	// Newest snapshot that decodes cleanly wins; older ones stay valid
	// fallbacks because the journal retains every record above them
	// until a *successful* compaction deletes the generation.
	var (
		entries   []snapEntry
		snapEpoch uint64
		haveSnap  bool
	)
	for i := len(gens) - 1; i >= 0; i-- {
		if gens[i].wal {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, gens[i].file))
		if err == nil {
			var p []byte
			if p, _, err = nextFrame(raw, 0); err == nil {
				dec.Reset(p)
				snapEpoch, entries, err = decodeSnapshot(dec)
			}
		}
		if err != nil {
			stats.CorruptSnapshots++
			d.opt.Logf("durable: set %q: snapshot %s unreadable (%v), falling back", name, gens[i].file, err)
			continue
		}
		haveSnap = true
		break
	}
	if !haveSnap {
		return errors.New("no readable snapshot")
	}

	initial := make(metric.PointSet, 0, len(entries))
	for _, en := range entries {
		for i := 0; i < en.count; i++ {
			initial = append(initial, en.pt)
		}
	}
	ls, err := live.NewSet(cfg, initial)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if err := ls.RestoreEpoch(snapEpoch); err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}

	// Replay every journal record above the snapshot epoch, strictly
	// in sequence. The first torn or corrupt frame — or an epoch gap,
	// which means a record vanished without tripping a checksum —
	// ends replay; the tail after it is lost, counted, and discarded
	// by the re-compaction below.
	sf := &setFiles{st: d, name: name, dir: dir, byKey: make(map[string]*mirrorEntry)}
	var ops []live.Op
replay:
	for _, gen := range gens {
		if !gen.wal {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, gen.file))
		if err != nil {
			d.opt.Logf("durable: set %q: journal %s unreadable (%v), stopping replay", name, gen.file, err)
			break
		}
		off := 0
		for off < len(raw) {
			payload, next, err := nextFrame(raw, off)
			if err != nil {
				stats.LostBytes += int64(len(raw) - off)
				d.opt.Logf("durable: set %q: journal %s offset %d: %v; discarding tail", name, gen.file, off, err)
				break replay
			}
			dec.Reset(payload)
			var epoch uint64
			if ops, err = decodeRecord(dec, &epoch, ops); err != nil {
				stats.LostBytes += int64(len(raw) - off)
				d.opt.Logf("durable: set %q: journal %s offset %d: %v; discarding tail", name, gen.file, off, err)
				break replay
			}
			cur := ls.Epoch()
			switch {
			case epoch <= cur:
				stats.Skipped++
			case epoch == cur+1:
				if err := replayRecord(ls, ops); err != nil {
					stats.LostBytes += int64(len(raw) - off)
					d.opt.Logf("durable: set %q: journal %s epoch %d: %v; discarding tail", name, gen.file, epoch, err)
					break replay
				}
				stats.Replayed++
			default:
				stats.LostBytes += int64(len(raw) - off)
				d.opt.Logf("durable: set %q: journal %s: epoch gap (%d after %d); discarding tail", name, gen.file, epoch, cur)
				break replay
			}
			off = next
		}
	}

	// Seal the recovered state: mirror from the live set, compact at
	// its epoch (bounding the next boot), and only then let mutations
	// flow through the journal again.
	snap := ls.Snapshot()
	for _, pt := range snap.Points {
		k := pt.Key()
		if en := sf.byKey[k]; en != nil {
			en.count++
		} else {
			en = &mirrorEntry{pt: pt.Clone(), count: 1, pos: len(sf.order)}
			sf.byKey[k] = en
			sf.order = append(sf.order, en)
		}
	}
	sf.epoch = ls.Epoch()
	if err := sf.compactLocked(sf.epoch); err != nil {
		return fmt.Errorf("post-recovery compaction: %w", err)
	}
	ls.SetLogger(sf)
	if err := st.Attach(name, ls); err != nil {
		sf.mu.Lock()
		sf.closeLocked(false)
		sf.mu.Unlock()
		return err
	}
	d.mu.Lock()
	d.sets[name] = sf
	d.mu.Unlock()
	return nil
}

// replayRecord re-applies one journaled mutation through the same
// entry points that produced it, so epoch bumps and churn bookkeeping
// match the original run exactly.
func replayRecord(ls *live.Set, ops []live.Op) error {
	if len(ops) == 1 {
		if ops[0].Remove {
			return ls.Remove(ops[0].Point)
		}
		return ls.Add(ops[0].Point)
	}
	return ls.ApplyBatch(ops)
}

// Close drains the store: snapshot-on-drain for every set, then close
// all journals. Further journaled mutations fail.
func (d *Store) Close() error {
	return d.shutdown(true)
}

// Crash abandons the store without draining — no final snapshots, no
// journal syncs beyond what the policy already did. It simulates a
// process kill for tests and the simnet kill fault; the state left on
// disk is exactly what a real crash at this instant would leave.
func (d *Store) Crash() {
	d.shutdown(false)
}

func (d *Store) shutdown(drain bool) error {
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return nil
	}
	d.done = true
	sets := make([]*setFiles, 0, len(d.sets))
	for _, sf := range d.sets {
		sets = append(sets, sf)
	}
	d.mu.Unlock()
	var firstErr error
	for _, sf := range sets {
		sf.mu.Lock()
		var err error
		if drain {
			err = sf.closeLocked(true)
		} else {
			// Simulated kill: drop the handle, flush nothing further.
			if sf.file != nil {
				sf.file.Close()
				sf.file = nil
			}
			sf.closed = true
		}
		sf.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

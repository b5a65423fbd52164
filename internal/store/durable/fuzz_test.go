package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/store"
	"repro/internal/transport"
)

// fuzzConfigFrame/fuzzSnapFrame build the fixed template files a
// fuzzed journal is recovered against: a Sync-only set (no sketch
// rebuild cost per fuzz iteration) snapshotted at epoch 1 with two
// points.
func fuzzTemplate() (configFrame, snapFrame []byte) {
	e := transport.NewEncoder()
	encodeConfig(e, live.Config{Sync: &live.SyncConfig{Seed: 42}})
	payload, _ := e.Pack()
	configFrame = appendFrame(nil, payload)
	transport.Recycle(e, payload)

	e = transport.NewEncoder()
	encodeSnapshot(e, 1, []snapEntry{
		{pt: metric.Point{1, 2}, count: 1},
		{pt: metric.Point{3, 4}, count: 2},
	})
	payload, _ = e.Pack()
	snapFrame = appendFrame(nil, payload)
	transport.Recycle(e, payload)
	return
}

// fuzzJournal encodes a small clean journal: epochs 2 and 3 over the
// template set (an add, then a batch with a remove).
func fuzzJournal() []byte {
	var out []byte
	e := transport.NewEncoder()
	encodeRecord(e, 2, []live.Op{{Point: metric.Point{5, 6}}})
	payload, _ := e.Pack()
	out = appendFrame(out, payload)
	transport.Recycle(e, payload)
	e = transport.NewEncoder()
	encodeRecord(e, 3, []live.Op{
		{Point: metric.Point{7, 8}},
		{Remove: true, Point: metric.Point{1, 2}},
	})
	payload, _ = e.Pack()
	out = appendFrame(out, payload)
	transport.Recycle(e, payload)
	return out
}

// corruptions derives the adversarial corpus variants from a clean
// journal: torn tail, bit-flipped checksum, hostile length prefix.
func corruptions(clean []byte) map[string][]byte {
	torn := bytes.Clone(clean[:len(clean)-len(clean)/4])
	flipped := bytes.Clone(clean)
	flipped[4] ^= 0x01 // corrupt the first record's stored CRC
	hostile := bytes.Clone(clean)
	binary.LittleEndian.PutUint32(hostile[0:4], 0xfffffff0)
	return map[string][]byte{
		"clean":          clean,
		"torn-tail":      torn,
		"bit-flip-crc":   flipped,
		"hostile-length": hostile,
		"empty":          nil,
		"header-only":    clean[:frameHeaderLen],
	}
}

// FuzzJournalReplay drives arbitrary bytes through the full recovery
// path as a set's journal file. Recovery must never panic and must
// never fail the whole pass — a broken journal is a lost tail, not an
// error — and the survivor must remain a working, journaled set.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range corruptions(fuzzJournal()) {
		f.Add(seed)
	}
	configFrame, snapFrame := fuzzTemplate()
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		setDir := filepath.Join(dir, "sets", setDirName("fz"))
		if err := os.MkdirAll(setDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeOrDie(t, filepath.Join(setDir, "config.bin"), configFrame)
		writeOrDie(t, filepath.Join(setDir, fmt.Sprintf("snap-%020d.snap", 1)), snapFrame)
		writeOrDie(t, filepath.Join(setDir, fmt.Sprintf("wal-%020d.log", 1)), data)
		d, err := Open(dir, Options{Fsync: FsyncOff, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		st := store.New()
		stats, err := d.Recover(st)
		if err != nil {
			t.Fatalf("recovery errored instead of tolerating: %v", err)
		}
		ls, ok := st.Get("fz")
		if !ok {
			t.Fatalf("set not recovered (stats %v)", stats)
		}
		// Whatever the journal claimed, the recovered set starts from
		// the epoch-1 snapshot and only grows by cleanly replayed
		// records.
		if ls.Epoch() < 1 {
			t.Fatalf("recovered epoch %d", ls.Epoch())
		}
		if err := ls.Add(metric.Point{9, 9}); err != nil {
			t.Fatalf("recovered set rejects mutations: %v", err)
		}
		d.Close()
	})
}

// FuzzSnapshotDecode drives arbitrary bytes through the framed
// snapshot reader: no panic, and any accepted payload obeys the
// cardinality bounds the decoder promises.
func FuzzSnapshotDecode(f *testing.F) {
	_, snapFrame := fuzzTemplate()
	for _, seed := range corruptions(snapFrame) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, err := nextFrame(data, 0)
		if err != nil {
			return
		}
		epoch, entries, err := decodeSnapshot(transport.NewDecoder(payload))
		if err != nil {
			return
		}
		total := 0
		for _, en := range entries {
			if en.count <= 0 {
				t.Fatalf("accepted non-positive count %d", en.count)
			}
			if len(en.pt) > metric.MaxEncodedDim {
				t.Fatalf("accepted dimension %d", len(en.pt))
			}
			total += en.count
		}
		if total > maxSnapshotPoints {
			t.Fatalf("accepted cardinality %d at epoch %d", total, epoch)
		}
	})
}

func writeOrDie(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFuzzCorpus regenerates the checked-in corpus under
// testdata/fuzz (clean journal/snapshot, torn tail, bit-flipped
// checksum, hostile length prefix). Skipped unless explicitly asked
// for: set DURABLE_WRITE_CORPUS=1.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("DURABLE_WRITE_CORPUS") == "" {
		t.Skip("set DURABLE_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	_, snapFrame := fuzzTemplate()
	for target, inputs := range map[string]map[string][]byte{
		"FuzzJournalReplay":  corruptions(fuzzJournal()),
		"FuzzSnapshotDecode": corruptions(snapFrame),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range inputs {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			writeOrDie(t, filepath.Join(dir, name), []byte(body))
		}
	}
}

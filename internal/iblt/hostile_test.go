package iblt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/transport"
)

// within runs f on a goroutine and fails t if f has not returned after
// a second: a peel of hostile cells must end, not spin.
func within(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("peel still running after 1s")
	}
}

const cycleKey = 0x5eed_cafe

// packed returns a copy of e's bytes.
func packed(e *transport.Encoder) []byte {
	data, _ := e.Pack()
	return append([]byte(nil), data...)
}

// cycleTable writes to e a Table of m cells under seed whose only
// content is cycleKey in the first of its q cells: a pure cell whose
// peel turns the key's other cells pure, whose peels turn the first
// pure again, without end. Seeds are public coins, so any peer can
// write such a cell.
func cycleTable(e *transport.Encoder, m int, seed uint64) {
	full := transport.NewEncoder()
	NewFromKeys(m, 3, seed, []uint64{cycleKey}).Encode(full)
	d := transport.NewDecoder(packed(full))
	q, per, _, err := readGeometry(d, false)
	if err != nil {
		panic(err)
	}
	e.WriteUvarint(uint64(q))
	e.WriteUvarint(uint64(per))
	cells := make([]Cell, q*per)
	if err := readCells(d, cells); err != nil {
		panic(err)
	}
	kept := false
	for _, c := range cells {
		if c.Count != 0 && kept {
			c = Cell{}
		}
		kept = kept || c.Count != 0
		e.WriteVarint(c.Count)
		e.WriteUvarint(c.KeySum)
		e.WriteUvarint(c.CheckSum)
	}
}

// TestDecodeEndsOnHostileCycle: a Table whose one key sits in one of
// its cells peels at most once per cell, then reports ErrPartial.
func TestDecodeEndsOnHostileCycle(t *testing.T) {
	e := transport.NewEncoder()
	cycleTable(e, 80, 3)
	tb, err := DecodeFrom(transport.NewDecoder(packed(e)), 3)
	if err != nil {
		t.Fatal(err)
	}
	within(t, func() {
		add, rem, err := tb.Decode()
		if peels := len(add) + len(rem); !errors.Is(err, ErrPartial) || peels > tb.Cells() {
			t.Errorf("Decode = (%d keys, %v), want at most %d keys and ErrPartial", peels, err, tb.Cells())
		}
	})
}

// cycleKV is the encoding of a KVTable of m cells and w-byte values
// under seed whose only content is cycleKey, with value 1, 2, …, in the
// first of its cells: the cycle of cycleTable.
func cycleKV(m, w int, seed uint64) []byte {
	tb := NewKV(m, 3, w, seed)
	val := make([]byte, w)
	for i := range val {
		val[i] = byte(i + 1)
	}
	tb.Insert(cycleKey, val)
	full := transport.NewEncoder()
	tb.Encode(full)
	d := transport.NewDecoder(packed(full))
	e := transport.NewEncoder()
	var hdr [3]uint64 // q, cells per q, w
	for i := range hdr {
		hdr[i], _ = d.ReadUvarint()
		e.WriteUvarint(hdr[i])
	}
	kept := false
	for range hdr[0] * hdr[1] {
		var c Cell
		c.Count, _ = d.ReadVarint()
		c.KeySum, _ = d.ReadUint64()
		c.CheckSum, _ = d.ReadUint64()
		if err := d.ReadBitString(val, int64(w)*8); err != nil {
			panic(err)
		}
		if c.Count != 0 && kept {
			c = Cell{}
			clear(val)
		}
		kept = kept || c.Count != 0
		e.WriteVarint(c.Count)
		e.WriteUint64(c.KeySum)
		e.WriteUint64(c.CheckSum)
		e.WriteBitString(val, int64(w)*8)
	}
	return packed(e)
}

// TestKVDecodeEndsOnHostileCycle: the same cycle in a KVTable ends in
// ErrKVPartial.
func TestKVDecodeEndsOnHostileCycle(t *testing.T) {
	tb, err := DecodeKVFrom(transport.NewDecoder(cycleKV(60, 4, fuzzKVSeed)), fuzzKVSeed)
	if err != nil {
		t.Fatal(err)
	}
	within(t, func() {
		add, rem, err := tb.Decode()
		if peels := len(add) + len(rem); !errors.Is(err, ErrKVPartial) || peels > tb.Cells() {
			t.Errorf("Decode = (%d pairs, %v), want at most %d pairs and ErrKVPartial", peels, err, tb.Cells())
		}
	})
}

// cycleStrata is the encoding of an estimator under seed that is empty
// but for the cycle in its deepest level, the first Estimate peels.
func cycleStrata(seed uint64) []byte {
	src := rng.New(seed)
	src.Uint64() // the stratum-assignment mixer
	e := transport.NewEncoder()
	e.WriteUvarint(StrataCells)
	for range StrataLevels - 1 {
		New(StrataCells, strataQ, src.Uint64()).Encode(e)
	}
	cycleTable(e, StrataCells, src.Uint64())
	return packed(e)
}

// TestEstimateEndsOnHostileCycle: a decoded estimator whose deepest
// level holds the cycle ends Estimate; that level counts as failed.
func TestEstimateEndsOnHostileCycle(t *testing.T) {
	const seed = 0xf00d
	remote, err := DecodeStrata(transport.NewDecoder(cycleStrata(seed)), seed)
	if err != nil {
		t.Fatal(err)
	}
	local := NewStrataFromKeys(StrataCells, seed, strataKeys(64, 2))
	within(t, func() {
		if _, err := local.Estimate(remote); err != nil {
			t.Error(err)
		}
	})
}

// TestGenerateHostileFuzzCorpus writes the cycles above into the seed
// corpora of FuzzDecodeKV and of netproto's FuzzDecodeStrata (under its
// seed, 0xf00d). Random fuzzing cannot forge a 64-bit checksum, so the
// fuzzer would not find them. Run with GEN_FUZZ_CORPUS=1; skipped
// otherwise.
func TestGenerateHostileFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	for dir, data := range map[string][]byte{
		filepath.Join("testdata", "fuzz", "FuzzDecodeKV"):                       cycleKV(30, 1, fuzzKVSeed),
		filepath.Join("..", "netproto", "testdata", "fuzz", "FuzzDecodeStrata"): cycleStrata(0xf00d),
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "peel-cycle"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package iblt

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/transport"
)

func TestKVInsertDeleteCancel(t *testing.T) {
	tb := NewKV(64, 3, 8, 1)
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	tb.Insert(42, val)
	tb.Delete(42, val)
	add, rem, err := tb.Decode()
	if err != nil || len(add)+len(rem) != 0 {
		t.Fatalf("cancel failed: +%v -%v err=%v", add, rem, err)
	}
}

func TestKVRecoverValues(t *testing.T) {
	tb := NewKV(96, 3, 4, 2)
	want := map[uint64][]byte{
		10: {1, 1, 1, 1},
		20: {2, 2, 2, 2},
		30: {3, 3, 3, 3},
	}
	for k, v := range want {
		tb.Insert(k, v)
	}
	tb.Delete(99, []byte{9, 9, 9, 9})
	add, rem, err := tb.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(add) != 3 || len(rem) != 1 {
		t.Fatalf("recovered %d/%d", len(add), len(rem))
	}
	for _, kv := range add {
		if !bytes.Equal(kv.Value, want[kv.Key]) {
			t.Errorf("key %d: value %v", kv.Key, kv.Value)
		}
	}
	if rem[0].Key != 99 || !bytes.Equal(rem[0].Value, []byte{9, 9, 9, 9}) {
		t.Errorf("removed = %+v", rem[0])
	}
}

func TestKVZeroValueBytes(t *testing.T) {
	tb := NewKV(64, 3, 0, 3)
	tb.Insert(7, nil)
	add, _, err := tb.Decode()
	if err != nil || len(add) != 1 || add[0].Key != 7 {
		t.Fatalf("valueless table: %v err=%v", add, err)
	}
}

func TestKVValueSizePanics(t *testing.T) {
	tb := NewKV(64, 3, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong value size accepted")
		}
	}()
	tb.Insert(1, []byte{1, 2})
}

func TestKVConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"q=1":      func() { NewKV(64, 1, 4, 1) },
		"negValSz": func() { NewKV(64, 3, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestKVOverloadStalls(t *testing.T) {
	tb := NewKV(12, 3, 2, 5)
	src := rng.New(6)
	for i := 0; i < 100; i++ {
		tb.Insert(src.Uint64(), []byte{1, 2})
	}
	if _, _, err := tb.Decode(); err != ErrKVPartial {
		t.Fatalf("err = %v, want ErrKVPartial", err)
	}
}

func TestKVEncodeDecodeRoundTrip(t *testing.T) {
	const seed = 7
	tb := NewKV(96, 3, 6, seed)
	src := rng.New(8)
	type pair struct {
		k uint64
		v []byte
	}
	var pairs []pair
	for i := 0; i < 12; i++ {
		v := make([]byte, 6)
		for j := range v {
			v[j] = byte(src.Uint64())
		}
		p := pair{k: src.Uint64(), v: v}
		pairs = append(pairs, p)
		tb.Insert(p.k, p.v)
	}
	e := transport.NewEncoder()
	tb.Encode(e)
	data, _ := e.Pack()
	got, err := DecodeKVFrom(transport.NewDecoder(data), seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		got.Delete(p.k, p.v)
	}
	add, rem, err := got.Decode()
	if err != nil || len(add)+len(rem) != 0 {
		t.Errorf("round-trip did not cancel: +%d -%d err=%v", len(add), len(rem), err)
	}
}

func TestKVDecodeFromRejectsGarbage(t *testing.T) {
	e := transport.NewEncoder()
	e.WriteUvarint(1)  // q = 1
	e.WriteUvarint(10) // cellsPerQ
	e.WriteUvarint(4)
	data, _ := e.Pack()
	if _, err := DecodeKVFrom(transport.NewDecoder(data), 1); err == nil {
		t.Error("implausible header accepted")
	}
	// Truncated body.
	e2 := transport.NewEncoder()
	NewKV(32, 3, 4, 2).Encode(e2)
	full, _ := e2.Pack()
	if _, err := DecodeKVFrom(transport.NewDecoder(full[:len(full)/2]), 2); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestKVSubtractSemanticsViaDelete(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%15) + 1
		const valSz = 3
		type pair struct {
			k uint64
			v []byte
		}
		mk := func() pair {
			v := make([]byte, valSz)
			for j := range v {
				v[j] = byte(src.Uint64())
			}
			return pair{k: src.Uint64(), v: v}
		}
		var shared, diff []pair
		for i := 0; i < 50; i++ {
			shared = append(shared, mk())
		}
		want := map[uint64][]byte{}
		for i := 0; i < n; i++ {
			p := mk()
			want[p.k] = p.v
			diff = append(diff, p)
		}
		// Tiny tables stall with small but real probability (Theorem
		// 2.6); retry with a fresh seed like production callers do.
		for attempt := 0; attempt < 4; attempt++ {
			tb := NewKV(CellsForDiff(2*n, 3)<<attempt, 3, valSz, seed^0x77+uint64(attempt))
			for _, p := range shared {
				tb.Insert(p.k, p.v)
				tb.Delete(p.k, p.v)
			}
			for _, p := range diff {
				tb.Insert(p.k, p.v)
			}
			add, rem, err := tb.Decode()
			if err != nil {
				continue
			}
			if len(rem) != 0 || len(add) != len(want) {
				return false
			}
			for _, kv := range add {
				if !bytes.Equal(want[kv.Key], kv.Value) {
					return false
				}
			}
			return true
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKVDecodeAllocs: decoding 200 pairs (150 added, 50 removed) costs
// a bounded number of allocations, not one per peeled value: each
// list's values share one growing buffer. The decoded values are the
// inserted ones, and appending to one never overwrites the next.
func TestKVDecodeAllocs(t *testing.T) {
	const pairs, valBytes, runs = 200, 16, 10
	src := rng.New(5)
	keys := make([]uint64, pairs)
	vals := make([][]byte, pairs)
	for i := range keys {
		keys[i] = src.Uint64()
		vals[i] = make([]byte, valBytes)
		for j := range vals[i] {
			vals[i][j] = byte(src.Uint64())
		}
	}
	tables := make([]*KVTable, runs+1)
	for r := range tables {
		tables[r] = NewKV(2*pairs, 3, valBytes, 9)
		for i, k := range keys {
			if i < 150 {
				tables[r].Insert(k, vals[i])
			} else {
				tables[r].Delete(k, vals[i])
			}
		}
	}
	next := 0
	var added, removed []KVPair
	allocs := testing.AllocsPerRun(runs, func() {
		var err error
		if added, removed, err = tables[next].Decode(); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 50 {
		t.Errorf("decoding %d pairs took %.0f allocations, want at most 50", pairs, allocs)
	}
	want := make(map[uint64][]byte, pairs)
	for i, k := range keys {
		want[k] = vals[i]
	}
	if len(added) != 150 || len(removed) != 50 {
		t.Fatalf("decoded %d added and %d removed, want 150 and 50", len(added), len(removed))
	}
	for _, kv := range append(added, removed...) {
		if !bytes.Equal(kv.Value, want[kv.Key]) {
			t.Fatalf("key %#x: value %x, want %x", kv.Key, kv.Value, want[kv.Key])
		}
	}
	grown := append(added[0].Value, 0xff)
	if !bytes.Equal(added[1].Value, want[added[1].Key]) || len(grown) != valBytes+1 {
		t.Fatal("appending to one decoded value overwrote the next")
	}
}

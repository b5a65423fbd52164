package iblt

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/rng"
)

// refDecode is the exact tables' peel loop as it stood before package
// peel, kept beside Decode as its reference: a FIFO queue of the cells
// pure at the start and of every cell that turns pure after a
// subtraction, with no in-queue marks. The value lines are KVTable's;
// with w = 0 they do nothing and the loop is Table's. It consumes t, as
// Decode does, and returns the peeled keys by sign with their values.
func refDecode(t *exact) (added, removed []uint64, addedVals, removedVals []byte, err error) {
	// Queue of candidate pure cells; re-scan lazily.
	queue := make([]int, 0, len(t.cells))
	for i := range t.cells {
		if t.cells[i].pure(t.lay.Check) {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		c := &t.cells[i]
		if !c.pure(t.lay.Check) {
			continue // stale entry; cell changed since enqueued
		}
		key := c.KeySum
		dir := c.Count // ±1
		val := slices.Clone(t.row(i))
		// Remove the key once; its other cells may become pure.
		check := t.lay.Check.Hash(key)
		for j := 0; j < t.lay.Q(); j++ {
			ci := t.lay.CellOf(key, j)
			t.cells[ci].add(key, check, -dir)
			xorInto(t.row(ci), val)
			if t.cells[ci].pure(t.lay.Check) {
				queue = append(queue, ci)
			}
		}
		if dir > 0 {
			added = append(added, key)
			addedVals = append(addedVals, val...)
		} else {
			removed = append(removed, key)
			removedVals = append(removedVals, val...)
		}
	}
	for i := range t.cells {
		if t.cells[i].Count != 0 || t.cells[i].KeySum != 0 {
			return added, removed, addedVals, removedVals, ErrPartial
		}
	}
	return added, removed, addedVals, removedVals, nil
}

// clone deep-copies t's cells and values; the layout is read-only.
func (t *exact) clone() *exact {
	c := *t
	c.cells, c.vals = slices.Clone(t.cells), slices.Clone(t.vals)
	return &c
}

// TestDecodeMatchesReference checks Table.Decode and KVTable.Decode
// against refDecode over 240 seeds, a quarter of them overloaded so the
// peel stalls: the same keys in the same order on each side, the same
// values, the same error and the same residue.
func TestDecodeMatchesReference(t *testing.T) {
	var stalled, kv int
	const seeds = 240
	for seed := range uint64(seeds) {
		src := rng.New(seed + 900)
		w := 0
		if seed%2 == 1 {
			w = 1 + src.Intn(6)
		}
		m := CellsForDiff(1+src.Intn(40), 3)
		n := m / 2
		if seed%4 == 3 {
			n = m // past the threshold: most of these stall
		}
		tb := newExact(m, 3, w, seed)
		val := make([]byte, w)
		for range n {
			key := src.Uint64()
			for b := range val {
				val[b] = byte(src.Uint64())
			}
			dir := int64(1)
			if src.Bool() {
				dir = -1
			}
			tb.update(key, tb.lay.Check.Hash(key), val, dir)
		}
		ref := tb.clone()
		wantAdd, wantRem, wantAddVals, wantRemVals, wantErr := refDecode(ref)
		var gotAdd, gotRem []uint64
		var gotAddVals, gotRemVals []byte
		var gotErr error
		if w == 0 {
			gotAdd, gotRem, gotErr = (&Table{tb}).Decode()
		} else {
			kv++
			kt := &KVTable{tb}
			add, rem, err := kt.Decode()
			gotAdd, gotAddVals = splitPairs(add)
			gotRem, gotRemVals = splitPairs(rem)
			if gotErr = err; errors.Is(err, ErrKVPartial) {
				gotErr = ErrPartial
			}
		}
		if !slices.Equal(gotAdd, wantAdd) || !slices.Equal(gotRem, wantRem) ||
			!bytes.Equal(gotAddVals, wantAddVals) || !bytes.Equal(gotRemVals, wantRemVals) || !errors.Is(gotErr, wantErr) {
			t.Fatalf("seed %d (w=%d): Decode = (%d+%d keys, %v), reference = (%d+%d keys, %v)",
				seed, w, len(gotAdd), len(gotRem), gotErr, len(wantAdd), len(wantRem), wantErr)
		}
		if !slices.Equal(tb.cells, ref.cells) || !bytes.Equal(tb.vals, ref.vals) {
			t.Fatalf("seed %d (w=%d): residue differs from the reference's", seed, w)
		}
		if gotErr != nil {
			stalled++
		}
	}
	t.Logf("%d of %d seeds stalled; %d KV tables", stalled, seeds, kv)
	if stalled == 0 || stalled > seeds/2 || kv == 0 {
		t.Fatalf("%d of %d seeds stalled, %d KV tables: the inputs must cover both outcomes and both tables",
			stalled, seeds, kv)
	}
}

func splitPairs(pairs []KVPair) (keys []uint64, vals []byte) {
	for _, p := range pairs {
		keys = append(keys, p.Key)
		vals = append(vals, p.Value...)
	}
	return keys, vals
}

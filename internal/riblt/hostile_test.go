package riblt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metric"
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

// patchScaled writes into dst, at every cell index of key in idx, the
// contents of src's cell scaled by k: a peer can send any cells, and
// seeds are public coins, so it can aim them at any key.
func patchScaled(t *testing.T, dst, src *Table, idx []int, k int64) {
	t.Helper()
	for _, i := range idx {
		c := &src.cells[i]
		e := transport.NewEncoder()
		e.WriteVarint(k * c.count)
		e.WriteVarint(k * c.keySum)
		e.WriteVarint(k * c.checkSum)
		for _, v := range c.valSum {
			e.WriteVarint(k * v)
		}
		data, _ := e.Pack()
		if err := dst.PatchCellAt(i, transport.NewDecoder(data)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPeelEndsOnHostileCycle: a key in the first of its q cells only
// peels, turns its other cells pure, and their peels turn the first
// pure again. Peel stops at one peel per cell and reports ErrStalled.
func TestPeelEndsOnHostileCycle(t *testing.T) {
	cfg := testCfg(36 * 8)
	const key = 0x5eedcafe
	one := New(cfg)
	one.Insert(key, metric.Point{1, 2, 3, 4})
	tb := New(cfg)
	patchScaled(t, tb, one, one.CellIndices(key, nil)[:1], 1)
	within(t, func() {
		res, err := tb.Peel(rng.New(1))
		if !errors.Is(err, ErrStalled) || res.Peels > tb.Cells() {
			t.Errorf("Peel = (%d peels, %v), want at most %d peels and ErrStalled", res.Peels, err, tb.Cells())
		}
	})
}

// TestPeelCapsCopiesAtMaxItems: a cell is C copies of one key, and Peel
// extracts all C. MaxItems bounds inserts plus deletes, so an honest
// table of MaxItems copies of a key peels them all, while a hostile
// cell claiming one copy more is left unpeeled.
func TestPeelCapsCopiesAtMaxItems(t *testing.T) {
	cfg := testCfg(36 * 8)
	cfg.MaxItems = 1024
	const key = 0x5eedcafe
	one := New(cfg)
	one.Insert(key, metric.Point{1, 2, 3, 4})
	idx := one.CellIndices(key, nil)
	for _, tc := range []struct {
		copies  int64
		wantErr error
	}{{1024, nil}, {1025, ErrStalled}, {4 << 10, ErrStalled}} {
		tb := New(cfg)
		patchScaled(t, tb, one, idx, tc.copies)
		res, err := tb.Peel(rng.New(1))
		if got := len(res.Inserted); !errors.Is(err, tc.wantErr) || got > cfg.MaxItems {
			t.Errorf("%d copies: Peel = (%d pairs, %v), want at most %d pairs and %v",
				tc.copies, got, err, cfg.MaxItems, tc.wantErr)
		}
	}
}

package riblt

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// refPeel is a straight-line reading of the package doc's rules, kept
// beside Peel as its reference. A cell is pure when it holds C ≠ 0 net
// copies of one key (item 5). Extracting it emits |C| copies of the
// clamped average value V/C, each randomly rounded, and subtracts the
// whole cell, residual value error included, from every cell of its key.
// Cells queue in index order at the start, then as they turn pure; the
// oldest peels first (item 1), or with lifo the newest — the ablation
// that shows why the paper asks for breadth-first. It consumes tb, as
// Peel does, and draws from src exactly where Peel does.
func refPeel(tb *Table, src *rng.Source, lifo bool) (Result, error) {
	pure := func(c *cell) (uint64, bool) {
		if c.count == 0 || c.keySum%c.count != 0 {
			return 0, false
		}
		k := c.keySum / c.count
		if k < 0 || k >= 1<<tb.cfg.KeyBits || tb.checksum(uint64(k))*c.count != c.checkSum {
			return 0, false
		}
		return uint64(k), true
	}
	var res Result
	var queue []int
	queued := make(map[int]bool)
	push := func(i int) {
		if _, ok := pure(&tb.cells[i]); ok && !queued[i] {
			queue = append(queue, i)
			queued[i] = true
		}
	}
	for i := range tb.cells {
		push(i)
	}
	for len(queue) > 0 {
		var i int
		if lifo {
			i, queue = queue[len(queue)-1], queue[:len(queue)-1]
		} else {
			i, queue = queue[0], queue[1:]
		}
		queued[i] = false
		key, ok := pure(&tb.cells[i])
		if !ok {
			continue
		}
		res.Peels++
		c := tb.cells[i]
		vals := slices.Clone(c.valSum)
		for range max(c.count, -c.count) {
			p := make(metric.Point, len(vals))
			for d, v := range vals {
				x := min(max(float64(v)/float64(c.count), 0), float64(tb.cfg.Delta))
				p[d] = int32(x)
				if frac := x - float64(p[d]); frac > 0 && src.Float64() < frac {
					p[d]++
				}
			}
			if c.count > 0 {
				res.Inserted = append(res.Inserted, Pair{key, p})
			} else {
				res.Deleted = append(res.Deleted, Pair{key, p})
			}
		}
		for j := 0; j < tb.cfg.Q; j++ {
			ci := tb.lay.CellOf(key, j)
			o := &tb.cells[ci]
			o.count -= c.count
			o.keySum -= c.keySum
			o.checkSum -= c.checkSum
			for d := range vals {
				o.valSum[d] -= vals[d]
			}
			push(ci)
		}
	}
	for i := range tb.cells {
		if c := tb.cells[i]; c.count != 0 || c.keySum != 0 || c.checkSum != 0 {
			return res, ErrStalled
		}
	}
	return res, nil
}

// TestPeelMatchesReference checks Peel against refPeel on tables that
// mix clean inserts and deletes, duplicated keys, close-but-unequal
// pairs whose keys cancel, and overloads that stall: at equal rounding
// draws both return the same pairs in the same order, the same peel
// count and the same error.
func TestPeelMatchesReference(t *testing.T) {
	var stalled int
	for trial := range 20 {
		src := rng.New(uint64(trial) + 500)
		cfg := testCfg(36 * 8)
		cfg.Seed = uint64(trial)
		tb := New(cfg)
		point := func() metric.Point {
			return metric.Point{int32(src.Intn(1001)), int32(src.Intn(1001)),
				int32(src.Intn(1001)), int32(src.Intn(1001))}
		}
		for range 40 {
			key, v := src.Uint64n(1<<40), point()
			w := v.Clone()
			w[src.Intn(4)] += int32(src.Intn(3)) - 1
			tb.Insert(key, v)
			tb.Delete(key, w)
		}
		// Trial 3i+2 overloads the table so some peels stall.
		diff := 4 + src.Intn(8)
		if trial%3 == 2 {
			diff = 300
		}
		for range diff {
			key, v := src.Uint64n(1<<40), point()
			switch src.Intn(3) {
			case 0:
				tb.Insert(key, v)
			case 1:
				tb.Delete(key, v)
			default:
				tb.Insert(key, v)
				tb.Insert(key, point())
			}
		}
		ref := tb.Clone()
		got, gotErr := tb.Peel(rng.New(uint64(trial)))
		want, wantErr := refPeel(ref, rng.New(uint64(trial)), false)
		if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Peel = (%d peels, %d+%d pairs, %v), reference = (%d peels, %d+%d pairs, %v)",
				trial, got.Peels, len(got.Inserted), len(got.Deleted), gotErr,
				want.Peels, len(want.Inserted), len(want.Deleted), wantErr)
		}
		if gotErr != nil {
			stalled++
		}
	}
	if stalled == 0 || stalled == 20 {
		t.Fatalf("%d of 20 trials stalled: the inputs must cover both outcomes", stalled)
	}
}

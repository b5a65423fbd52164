// Package peel is the peeling core of the paper's sketch tables (§2.2):
// the IBLT and KV tables of package iblt and the RIBLT of package
// riblt. They share a layout and a breadth-first loop over the cells
// that hold one key alone, and differ only in what a cell holds, how
// such a pure cell is recognised and what subtracting it does: a
// table's Cells.
//
// The XORSAT view (Dietzfelbinger et al., "Tight Thresholds for Cuckoo
// Hashing via XORSAT"): keys are hyperedges over the cells, and peeling
// succeeds exactly when that hypergraph's 2-core is empty, which below
// the load threshold c*_q holds with high probability (Theorem 2.6;
// iblt.TestTheorem26Threshold measures the knee from both sides).
//
// The bound: Run peels at most once per cell. An honest peel empties
// its cell for good, since no other key maps there, so an honest table
// never reaches the bound. A hostile one can: a key written into one of
// its q cells only turns its other cells pure, and their peels turn the
// first pure again, forever. Run stops there with a pure cell left,
// which the table reports as its partial or stalled error.
package peel

import (
	"repro/internal/hashx"
	"repro/internal/rng"
)

// Layout is the partitioned geometry §2.2 suggests: q partitions of
// ⌈m/q⌉ cells, one cell-index mixer per partition so a key's q cells
// are distinct, and a per-key checksum mixer.
type Layout struct {
	per   int           // cells per partition
	idx   []hashx.Mixer // one cell-index mixer per partition
	Check hashx.Mixer   // per-key checksum
}

// NewLayout lays out at least m cells over len(idx) partitions and
// draws the mixers from seed: the index mixers into idx in partition
// order, then Check. Parties that share the seed share the layout. The
// caller owns idx, so an estimator can carve all its levels' mixers out
// of one array.
func NewLayout(m int, seed uint64, idx []hashx.Mixer) Layout {
	q := len(idx)
	src := rng.New(seed)
	for i := range idx {
		idx[i] = hashx.NewMixer(src)
	}
	return Layout{per: (max(m, q) + q - 1) / q, idx: idx, Check: hashx.NewMixer(src)}
}

// Q returns the number of partitions, one per cell hash of a key.
func (l *Layout) Q() int { return len(l.idx) }

// Cells returns the total number of cells.
func (l *Layout) Cells() int { return len(l.idx) * l.per }

// CellOf returns the cell index of key in partition j.
func (l *Layout) CellOf(key uint64, j int) int {
	return j*l.per + int(l.idx[j].Hash(key)%uint64(l.per))
}

// Cells is what a table lends Run. A cell is pure when it holds net
// copies of one key alone.
type Cells interface {
	// Pure reports whether cell i is pure, and its key.
	Pure(i int) (key uint64, ok bool)
	// Take takes cell i if it is pure: it extracts the cell's copies,
	// keeps its contents for Subtract and returns its key.
	Take(i int) (key uint64, ok bool)
	// Subtract removes the contents Take kept from cell ci and reports
	// whether ci is pure now.
	Subtract(ci int) (pure bool)
}

// Scratch is Run's working memory, one slot per cell. The zero value is
// ready, and one Scratch serves any number of sequential peels.
type Scratch struct{ slots []slot }

// slot k is position k of the ring of queued cells, and holds cell k's
// in-queue mark.
type slot struct {
	cell   int
	queued bool
}

// Run peels the cells of l breadth-first, first come first served: the
// pure cells in index order, then each cell as it turns pure, queued at
// most once at a time and skipped if no longer pure when popped. It
// returns the number of peels, at most l.Cells(); the caller judges the
// residue. (Stopping at the bound changes no honest outcome: all cells
// are peeled, so the queue holds only stale entries.)
func Run[C Cells](l *Layout, s *Scratch, c C) (peels int) {
	n := l.Cells()
	if cap(s.slots) < n {
		s.slots = make([]slot, n)
	}
	ring := s.slots[:n]
	clear(ring)
	size := 0
	for i := range n {
		if _, ok := c.Pure(i); ok {
			ring[size].cell, ring[i].queued = i, true
			size++
		}
	}
	for head := 0; size > 0 && peels < n; {
		i := ring[head].cell
		if head++; head == n {
			head = 0
		}
		size--
		ring[i].queued = false
		key, ok := c.Take(i)
		if !ok {
			continue // changed since it was queued
		}
		peels++
		for j := range l.idx {
			if ci := l.CellOf(key, j); c.Subtract(ci) && !ring[ci].queued {
				tail := head + size
				if tail >= n {
					tail -= n
				}
				ring[tail].cell, ring[ci].queued = ci, true
				size++
			}
		}
	}
	return peels
}

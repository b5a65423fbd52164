// Package iblt implements Invertible Bloom Lookup Tables as described in
// §2.2 of the paper (following Goodrich & Mitzenmacher [13]): a hash
// table of m cells and q hash functions in which each cell keeps a count,
// an XOR of keys, and an XOR of per-key checksums. Inserting and deleting
// are O(q); after deleting one set from a table holding another, the
// cells encode exactly the symmetric difference, which a peeling process
// recovers in O(m) time whenever the difference is at most c·m for a
// constant c < 1 (Theorem 2.6).
//
// This is both a substrate of the paper's protocols (the Gap Guarantee
// protocol reconciles keys through IBLT-based set reconciliation) and the
// classic set-reconciliation baseline the robust protocols generalize.
package iblt

import (
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Cell is one bucket of the table. All fields combine by XOR (and count
// by addition), so insert and delete are self-inverse and two tables can
// be subtracted cell-wise.
type Cell struct {
	Count    int64
	KeySum   uint64
	CheckSum uint64
}

func (c *Cell) add(key, check uint64, dir int64) {
	c.Count += dir
	c.KeySum ^= key
	c.CheckSum ^= check
}

// pure reports whether the cell provably holds exactly one key (count ±1
// and matching checksum). The checksum guards against the count-1-but-
// multiple-keys case described in §2.2.
func (c *Cell) pure(check func(uint64) uint64) bool {
	if c.Count != 1 && c.Count != -1 {
		return false
	}
	return check(c.KeySum) == c.CheckSum
}

// Table is an IBLT over uint64 keys. Keys are partitioned across q
// sub-tables of m/q cells each (the partitioned layout §2.2 suggests so
// a key's q cells are distinct).
type Table struct {
	q         int
	cellsPerQ int
	cells     []Cell
	idx       []hashx.Mixer // one cell-index hash per partition
	check     hashx.Mixer   // per-key checksum
}

// New creates a table with q hash functions and at least m cells (rounded
// up to a multiple of q). Both parties must pass the same seed so their
// tables align cell-for-cell; this is the public-coins assumption.
func New(m, q int, seed uint64) *Table {
	if q < 2 {
		panic("iblt: need q >= 2 hash functions")
	}
	return new(Table).init(seed, make([]Cell, q*cellsPerPartition(m, q)), make([]hashx.Mixer, q))
}

// cellsPerPartition is the partition size of a table of at least m
// cells and q hash functions.
func cellsPerPartition(m, q int) int { return (max(m, q) + q - 1) / q }

// init lays t out over cells, split into len(idx) partitions, and draws
// its mixers from seed: one cell-index mixer per partition into idx,
// then the checksum mixer. New allocates both slices per table; a
// strata carves them out of one array per estimator.
func (t *Table) init(seed uint64, cells []Cell, idx []hashx.Mixer) *Table {
	src := rng.New(seed)
	for i := range idx {
		idx[i] = hashx.NewMixer(src)
	}
	*t = Table{q: len(idx), cellsPerQ: len(cells) / len(idx), cells: cells, idx: idx, check: hashx.NewMixer(src)}
	return t
}

// NewFromKeys builds a table with q hash functions and at least m cells
// holding every key.
func NewFromKeys(m, q int, seed uint64, keys []uint64) *Table {
	t := New(m, q, seed)
	t.InsertAll(keys)
	return t
}

// Cells returns the total number of cells.
func (t *Table) Cells() int { return len(t.cells) }

// Q returns the number of hash functions.
func (t *Table) Q() int { return t.q }

// cellOf returns the cell index of key in partition j.
func (t *Table) cellOf(key uint64, j int) int {
	return j*t.cellsPerQ + int(t.idx[j].Hash(key)%uint64(t.cellsPerQ))
}

// Insert adds a key.
func (t *Table) Insert(key uint64) { t.update(key, 1) }

// InsertAll adds every key of keys, batching the per-key checksum
// hashing through hashx.Mixer.HashInto over a fixed scratch block — the
// bulk-construction path. Cell state after InsertAll is identical to
// inserting the keys one at a time.
func (t *Table) InsertAll(keys []uint64) {
	var checks [256]uint64
	for len(keys) > 0 {
		n := min(len(keys), len(checks))
		t.check.HashInto(checks[:n], keys[:n])
		for i, key := range keys[:n] {
			for j := 0; j < t.q; j++ {
				t.cells[t.cellOf(key, j)].add(key, checks[i], 1)
			}
		}
		keys = keys[n:]
	}
}

// Delete removes a key (which need not have been inserted: deletion of a
// foreign key leaves a count of −1, which is how set differences appear).
func (t *Table) Delete(key uint64) { t.update(key, -1) }

func (t *Table) update(key uint64, dir int64) {
	check := t.check.Hash(key)
	for j := 0; j < t.q; j++ {
		t.cells[t.cellOf(key, j)].add(key, check, dir)
	}
}

// Subtract replaces t with the cell-wise difference t − other. The two
// tables must have identical geometry and seed; the result encodes the
// multiset difference of their contents.
func (t *Table) Subtract(other *Table) error {
	if t.q != other.q || len(t.cells) != len(other.cells) {
		return fmt.Errorf("iblt: geometry mismatch: %d/%d cells, q %d/%d",
			len(t.cells), len(other.cells), t.q, other.q)
	}
	for i := range t.cells {
		t.cells[i].Count -= other.cells[i].Count
		t.cells[i].KeySum ^= other.cells[i].KeySum
		t.cells[i].CheckSum ^= other.cells[i].CheckSum
	}
	return nil
}

// ErrPartial is returned by Decode when peeling stalls before the table
// empties (the underlying hypergraph has a non-empty 2-core, cf.
// Theorem 2.6's failure probability).
var ErrPartial = errors.New("iblt: peeling stalled; table not fully decodable")

// Decode recovers the table's contents by peeling. Added holds keys with
// positive multiplicity (inserted more than deleted), Removed keys with
// negative multiplicity. Decode consumes the table: on return (even with
// ErrPartial) cells reflect whatever could not be peeled.
func (t *Table) Decode() (added, removed []uint64, err error) {
	// Queue of candidate pure cells; re-scan lazily.
	queue := make([]int, 0, len(t.cells))
	for i := range t.cells {
		if t.cells[i].pure(t.check.Hash) {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		c := &t.cells[i]
		if !c.pure(t.check.Hash) {
			continue // stale entry; cell changed since enqueued
		}
		key := c.KeySum
		dir := c.Count // ±1
		// Remove the key once; its other cells may become pure.
		check := t.check.Hash(key)
		for j := 0; j < t.q; j++ {
			ci := t.cellOf(key, j)
			t.cells[ci].add(key, check, -dir)
			if t.cells[ci].pure(t.check.Hash) {
				queue = append(queue, ci)
			}
		}
		if dir > 0 {
			added = append(added, key)
		} else {
			removed = append(removed, key)
		}
	}
	for i := range t.cells {
		if t.cells[i].Count != 0 || t.cells[i].KeySum != 0 {
			return added, removed, ErrPartial
		}
	}
	return added, removed, nil
}

// Encode serializes the table. All cell fields are varint-coded: empty
// cells (the common case in difference sketches and deep strata levels)
// cost a few bits each, so the wire size tracks occupancy rather than
// geometry.
func (t *Table) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(t.q))
	e.WriteUvarint(uint64(t.cellsPerQ))
	for i := range t.cells {
		e.WriteVarint(t.cells[i].Count)
		e.WriteUvarint(t.cells[i].KeySum)
		e.WriteUvarint(t.cells[i].CheckSum)
	}
}

// DecodeFrom deserializes a table that must have been built with the same
// seed as the receiver's reference table; geometry is checked.
func DecodeFrom(d *transport.Decoder, seed uint64) (*Table, error) {
	q, cellsPerQ, err := readGeometry(d)
	if err != nil {
		return nil, err
	}
	t := New(q*cellsPerQ, q, seed)
	if err := readCells(d, t.cells); err != nil {
		return nil, err
	}
	return t, nil
}

// readGeometry reads the (q, cells/q) header Table.Encode writes.
func readGeometry(d *transport.Decoder) (q, cellsPerQ int, err error) {
	uq, err := d.ReadUvarint()
	if err != nil {
		return 0, 0, err
	}
	ucells, err := d.ReadUvarint()
	if err != nil {
		return 0, 0, err
	}
	if uq < 2 || uq > 16 || ucells == 0 || ucells > 1<<30 {
		return 0, 0, fmt.Errorf("iblt: implausible geometry q=%d cells/q=%d", uq, ucells)
	}
	// Every encoded cell costs at least 3 bytes (count varint, keyXor
	// uvarint, checkXor uvarint), so a table the rest of the frame
	// cannot hold is rejected before its cells are allocated: a hostile
	// header must not reserve memory the payload never backs.
	if cells := uq * ucells; cells > uint64(d.Remaining())/3 {
		return 0, 0, fmt.Errorf("iblt: table of %d cells exceeds remaining frame (%d bytes)", cells, d.Remaining())
	}
	return int(uq), int(ucells), nil
}

// readCells reads the cells Table.Encode writes after its header.
func readCells(d *transport.Decoder, cells []Cell) error {
	for i := range cells {
		cnt, err := d.ReadVarint()
		if err != nil {
			return err
		}
		ks, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		cs, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		cells[i] = Cell{Count: cnt, KeySum: ks, CheckSum: cs}
	}
	return nil
}

// ---------------------------------------------------------------------------
// One-shot set reconciliation built on the table (the classic protocol
// described in §2.2: Bob sends an IBLT of his set, Alice deletes hers and
// peels the difference).

// Diff runs the one-message difference recovery locally: given Bob's and
// Alice's key sets and a difference bound dmax, it returns the keys only
// Bob has and the keys only Alice has. It fails with ErrPartial when the
// true difference overflows the table, which callers handle by retrying
// with a larger bound.
func Diff(bob, alice []uint64, dmax, q int, seed uint64) (onlyBob, onlyAlice []uint64, err error) {
	m := CellsForDiff(dmax, q)
	t := New(m, q, seed)
	for _, k := range bob {
		t.Insert(k)
	}
	for _, k := range alice {
		t.Delete(k)
	}
	return t.Decode()
}

// MaxDiff bounds the difference size a responder sizes an IBLT for,
// whether the bound comes from a peer's strata estimate, a peer-supplied
// hint, or doubling after a failed decode. Without it one hostile
// estimator, hint or runaway retry loop could demand a multi-gigabyte
// table before any payload flows; with it the worst-case table stays
// tens of megabytes.
const MaxDiff = 1 << 20

// CellsForDiff returns a cell count that decodes a difference of d keys
// with high probability. The constant 1.35·q/(q−1)-ish overhead follows
// the peeling-threshold literature; we use a simple affine rule with a
// floor that keeps small tables reliable.
func CellsForDiff(d, q int) int {
	if d < 1 {
		d = 1
	}
	m := d*3/2 + 8*q
	return m
}

// DiffAdaptive runs Diff, doubling the difference bound (and re-seeding,
// so a fresh hypergraph is drawn) on ErrPartial, up to maxDoublings
// retries. Theorem 2.6 only promises success with probability
// 1 − O(1/poly(m)), so production use of IBLT reconciliation always
// wraps decoding in a retry loop of this shape.
func DiffAdaptive(bob, alice []uint64, dmax, q int, seed uint64, maxDoublings int) (onlyBob, onlyAlice []uint64, err error) {
	for attempt := 0; ; attempt++ {
		onlyBob, onlyAlice, err = Diff(bob, alice, dmax, q, seed+uint64(attempt)*0x9e37)
		if err == nil || attempt >= maxDoublings {
			return onlyBob, onlyAlice, err
		}
		dmax *= 2
	}
}

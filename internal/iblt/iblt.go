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
//
// Table and KVTable are one structure, a KVTable's cells carrying value
// bytes beside the fields a Table's carry. Their layout and peel loop
// are package peel's, shared with the RIBLT; peel also bounds every
// decode at one peel per cell, so hostile cells end in ErrPartial.
package iblt

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hashx"
	"repro/internal/peel"
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
func (c *Cell) pure(check hashx.Mixer) bool {
	return (c.Count == 1 || c.Count == -1) && check.Hash(c.KeySum) == c.CheckSum
}

// exact is the state of the two exact tables: a layout, its cells, and
// w bytes of XOR-folded value per cell. A Table is the w = 0 case.
type exact struct {
	lay   peel.Layout
	cells []Cell
	w     int
	vals  []byte // len(cells) × w
}

func newExact(m, q, w int, seed uint64) exact {
	if q < 2 {
		panic("iblt: need q >= 2 hash functions")
	}
	lay := peel.NewLayout(m, seed, make([]hashx.Mixer, q))
	return exact{lay: lay, cells: make([]Cell, lay.Cells()), w: w, vals: make([]byte, lay.Cells()*w)}
}

// Cells returns the total number of cells.
func (t *exact) Cells() int { return len(t.cells) }

func (t *exact) row(i int) []byte { return t.vals[i*t.w : (i+1)*t.w] }

// update adds (dir 1) or removes (dir −1) a key whose checksum is check
// and whose value is val.
func (t *exact) update(key, check uint64, val []byte, dir int64) {
	for j := range t.lay.Q() {
		ci := t.lay.CellOf(key, j)
		t.cells[ci].add(key, check, dir)
		xorInto(t.row(ci), val)
	}
}

func xorInto(dst, src []byte) {
	for b := range src {
		dst[b] ^= src[b]
	}
}

// peeler lends an exact table, a copy sharing its cells, to peel.Run.
// Each peel takes one key and its value, listed by sign: added, then
// removed. Keys are listed only with list set.
type peeler struct {
	exact
	s      peel.Scratch
	list   bool
	taken  Cell
	val    []byte // the taken cell's value, the last window of values[side]
	keys   [2][]uint64
	values [2][]byte
}

func (p *peeler) Pure(i int) (uint64, bool) {
	return p.cells[i].KeySum, p.cells[i].pure(p.lay.Check)
}

func (p *peeler) Take(i int) (uint64, bool) {
	if _, ok := p.Pure(i); !ok {
		return 0, false
	}
	p.taken = p.cells[i]
	side := 0
	if p.taken.Count < 0 {
		side = 1
	}
	if p.list {
		p.keys[side] = append(p.keys[side], p.taken.KeySum)
	}
	if p.w > 0 {
		p.values[side] = append(p.values[side], p.row(i)...)
		p.val = p.values[side][len(p.values[side])-p.w:]
	}
	return p.taken.KeySum, true
}

func (p *peeler) Subtract(ci int) bool {
	c := &p.cells[ci]
	c.add(p.taken.KeySum, p.taken.CheckSum, -p.taken.Count)
	if p.w > 0 {
		xorInto(p.row(ci), p.val)
	}
	return c.pure(p.lay.Check)
}

// decode peels t, consuming it, and reports the number of peels and
// whether t emptied.
func (p *peeler) decode(t *exact) (peels int, ok bool) {
	p.exact = *t
	peels = peel.Run(&t.lay, &p.s, p)
	return peels, !slices.ContainsFunc(t.cells, func(c Cell) bool { return c.Count != 0 || c.KeySum != 0 })
}

// Table is an IBLT over uint64 keys. Keys are partitioned across q
// sub-tables of m/q cells each (the partitioned layout §2.2 suggests so
// a key's q cells are distinct).
type Table struct{ exact }

// New creates a table with q hash functions and at least m cells (rounded
// up to a multiple of q). Both parties must pass the same seed so their
// tables align cell-for-cell; this is the public-coins assumption.
func New(m, q int, seed uint64) *Table {
	return &Table{newExact(m, q, 0, seed)}
}

// NewFromKeys builds a table with q hash functions and at least m cells
// holding every key.
func NewFromKeys(m, q int, seed uint64, keys []uint64) *Table {
	t := New(m, q, seed)
	t.InsertAll(keys)
	return t
}

// Q returns the number of hash functions.
func (t *Table) Q() int { return t.lay.Q() }

// Insert adds a key.
func (t *Table) Insert(key uint64) { t.update(key, t.lay.Check.Hash(key), nil, 1) }

// InsertAll adds every key of keys, batching the per-key checksum
// hashing through hashx.Mixer.HashInto over a fixed scratch block — the
// bulk-construction path. Cell state after InsertAll is identical to
// inserting the keys one at a time.
func (t *Table) InsertAll(keys []uint64) {
	var checks [256]uint64
	for len(keys) > 0 {
		n := min(len(keys), len(checks))
		t.lay.Check.HashInto(checks[:n], keys[:n])
		for i, key := range keys[:n] {
			t.update(key, checks[i], nil, 1)
		}
		keys = keys[n:]
	}
}

// Delete removes a key (which need not have been inserted: deletion of a
// foreign key leaves a count of −1, which is how set differences appear).
func (t *Table) Delete(key uint64) { t.update(key, t.lay.Check.Hash(key), nil, -1) }

// Subtract replaces t with the cell-wise difference t − other. The two
// tables must have identical geometry and seed; the result encodes the
// multiset difference of their contents.
func (t *Table) Subtract(other *Table) error {
	if t.Q() != other.Q() || len(t.cells) != len(other.cells) {
		return fmt.Errorf("iblt: geometry mismatch: %d/%d cells, q %d/%d",
			len(t.cells), len(other.cells), t.Q(), other.Q())
	}
	for i := range t.cells {
		o := &other.cells[i]
		t.cells[i].add(o.KeySum, o.CheckSum, -o.Count)
	}
	return nil
}

// ErrPartial is returned by Decode when peeling stalls before the table
// empties (the underlying hypergraph has a non-empty 2-core, cf.
// Theorem 2.6's failure probability), or when hostile cells would peel
// without end (see package peel).
var ErrPartial = errors.New("iblt: peeling stalled; table not fully decodable")

// Decode recovers the table's contents by peeling. Added holds keys with
// positive multiplicity (inserted more than deleted), Removed keys with
// negative multiplicity. Decode consumes the table: on return (even with
// ErrPartial) cells reflect whatever could not be peeled.
func (t *Table) Decode() (added, removed []uint64, err error) {
	p := peeler{list: true}
	if _, ok := p.decode(&t.exact); !ok {
		err = ErrPartial
	}
	return p.keys[0], p.keys[1], err
}

// Encode serializes the table. All cell fields are varint-coded: empty
// cells (the common case in difference sketches and deep strata levels)
// cost a few bits each, so the wire size tracks occupancy rather than
// geometry.
func (t *Table) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(t.Q()))
	e.WriteUvarint(uint64(t.lay.Cells() / t.lay.Q()))
	for i := range t.cells {
		e.WriteVarint(t.cells[i].Count)
		e.WriteUvarint(t.cells[i].KeySum)
		e.WriteUvarint(t.cells[i].CheckSum)
	}
}

// DecodeFrom deserializes a table that must have been built with the same
// seed as the receiver's reference table; geometry is checked.
func DecodeFrom(d *transport.Decoder, seed uint64) (*Table, error) {
	q, cellsPerQ, _, err := readGeometry(d, false)
	if err != nil {
		return nil, err
	}
	t := New(q*cellsPerQ, q, seed)
	if err := readCells(d, t.cells); err != nil {
		return nil, err
	}
	return t, nil
}

// readGeometry reads the (q, cells/q) header Table.Encode writes, and
// with kv the value width KVTable.Encode writes after it.
func readGeometry(d *transport.Decoder, kv bool) (q, cellsPerQ, w int, err error) {
	uq, err := d.ReadUvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	ucells, err := d.ReadUvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	var uw uint64
	if kv {
		if uw, err = d.ReadUvarint(); err != nil {
			return 0, 0, 0, err
		}
	}
	if uq < 2 || uq > 16 || ucells == 0 || ucells > 1<<30 || uw > 1<<20 {
		return 0, 0, 0, fmt.Errorf("iblt: implausible geometry q=%d cells/q=%d val=%dB", uq, ucells, uw)
	}
	// Every encoded cell costs at least 3 bytes (count varint, keyXor
	// uvarint, checkXor uvarint), or 17 + w in a KVTable (count varint,
	// two 64-bit sums, the value), so a table the rest of the frame
	// cannot hold is rejected before its cells are allocated: a hostile
	// header must not reserve memory the payload never backs. The
	// product stays below 2^55: no overflow.
	minCell := uint64(3)
	if kv {
		minCell = 17 + uw
	}
	if cells := uq * ucells; cells*minCell > uint64(d.Remaining()) {
		return 0, 0, 0, fmt.Errorf("iblt: table of %d cells of %dB values exceeds remaining frame (%d bytes)",
			cells, uw, d.Remaining())
	}
	return int(uq), int(ucells), int(uw), nil
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

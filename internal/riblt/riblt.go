// Package riblt implements the paper's Robust Invertible Bloom Lookup
// Table (§2.2), the novel data structure behind the EMD protocol
// (Algorithm 1). An RIBLT stores (key, value) pairs where keys are short
// hashes (a point's locality-sensitive fingerprint) and values are the
// points themselves. It differs from a classic IBLT in five ways, all
// implemented here exactly as the paper prescribes:
//
//  1. Peeling proceeds breadth-first, first-come first-served.
//  2. The table is sparser: the load must satisfy c < 1/(q(q−1)), so the
//     underlying hypergraph is trees and unicyclic components whp.
//  3. Cells hold *sums* of keys and key checksums rather than XORs.
//  4. Cells hold coordinate-wise sums of values (points in
//     {−n∆,…,n∆}^d).
//  5. A cell is peelable whenever its contents are C net copies of one
//     key: count C ≠ 0, key sum divisible by C, and checksum sum equal
//     to C times the checksum of the quotient key. Extraction averages
//     the value sum over C, clamps into [0,∆]^d, and randomly rounds
//     fractional coordinates (unbiased), so extracted values always lie
//     in the original space.
//
// Because unequal values under equal keys cancel only partially, peeling
// leaves and propagates value error; the whole point of the design (and
// of the paper's Lemma 3.10 analysis) is that with the sparsity of
// item 2 and the order of item 1, each error is added to O(1) extracted
// values in expectation.
//
// The layout and the breadth-first loop of item 1 are package peel's,
// shared with the exact tables of package iblt; this package supplies
// the purity test of item 5 and the extraction and subtraction above.
// Peel is bounded twice against hostile bytes: at one peel per cell
// (package peel), and at MaxItems extracted copies in all.
package riblt

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/hashx"
	"repro/internal/metric"
	"repro/internal/peel"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Config fixes the geometry of a table. Both parties must use identical
// configs (including Seed) for their tables to align.
type Config struct {
	// Cells is the number of cells m. Algorithm 1 uses m = 4q²k.
	Cells int
	// Q is the number of cell hashes per key (q ≥ 3 in Algorithm 1).
	Q int
	// Dim and Delta describe the value space [∆]^d.
	Dim   int
	Delta int32
	// KeyBits bounds the width of keys; keys must fit so that sums of
	// up to MaxItems keys cannot overflow an int64. Algorithm 1 keys are
	// Θ(log n)-bit pairwise hashes, so 40 bits is ample.
	KeyBits uint
	// MaxItems is an upper bound on insertions plus deletions, used only
	// to verify that sums cannot overflow.
	MaxItems int
	// Seed derives the cell-index hashes and the checksum function.
	Seed uint64
}

// Validate reports an error for unusable configurations, including any
// combination that could overflow a cell's int64 sums.
func (c Config) Validate() error {
	if c.Cells < c.Q || c.Q < 2 {
		return fmt.Errorf("riblt: need cells >= q >= 2, got m=%d q=%d", c.Cells, c.Q)
	}
	if c.Dim < 1 || c.Delta < 1 {
		return fmt.Errorf("riblt: bad value space [%d]^%d", c.Delta, c.Dim)
	}
	if c.KeyBits < 1 || c.KeyBits > 48 {
		return fmt.Errorf("riblt: KeyBits = %d, need in [1,48]", c.KeyBits)
	}
	if c.MaxItems < 1 {
		return fmt.Errorf("riblt: MaxItems = %d", c.MaxItems)
	}
	// Key sums: MaxItems · 2^KeyBits must stay below 2^62 (sign + slack).
	if bits.Len64(uint64(c.MaxItems))+int(c.KeyBits) > 62 {
		return fmt.Errorf("riblt: MaxItems %d with %d-bit keys can overflow key sums", c.MaxItems, c.KeyBits)
	}
	// Value sums: MaxItems · Delta must stay below 2^62.
	if bits.Len64(uint64(c.MaxItems))+bits.Len64(uint64(c.Delta)) > 62 {
		return fmt.Errorf("riblt: MaxItems %d with Delta %d can overflow value sums", c.MaxItems, c.Delta)
	}
	return nil
}

// checkBits is the width of summed checksums. 40 bits keeps false
// positive peels below 2^-40 per test while leaving headroom for sums of
// 2^22 items in an int64.
const checkBits = 40

// Pair is one recovered (key, value) pair.
type Pair struct {
	Key   uint64
	Value metric.Point
}

// cell is one bucket: net count, summed keys, summed checksums, and
// coordinate-wise summed values.
type cell struct {
	count    int64
	keySum   int64
	checkSum int64
	valSum   []int64
}

func (c *cell) empty() bool {
	return c.count == 0 && c.keySum == 0 && c.checkSum == 0
}

// Table is a Robust IBLT. Cell value sums live in one flat backing
// array (vals), with each cell's valSum a view into it — one allocation
// per table rather than one per cell, and cache-friendly cell-wise
// merges.
type Table struct {
	cfg   Config
	lay   peel.Layout
	cells []cell
	vals  []int64   // flat backing of all valSum views
	mem   *tableMem // pool ticket for cells/vals
	items int       // inserts + deletes, for the overflow guard
}

// tableMem is the poolable bulk memory of a table. Shard builders and
// decode paths construct and discard tables at protocol rate, so the two
// big arrays are recycled through a pool; New zeroes exactly the portion
// it hands out.
type tableMem struct {
	cells []cell
	vals  []int64
}

var tableMemPool = sync.Pool{New: func() any { return new(tableMem) }}

// newArrays returns zeroed cell and value arrays of the requested sizes,
// reusing pooled capacity when available.
func newArrays(nCells, nVals int) ([]cell, []int64, *tableMem) {
	m := tableMemPool.Get().(*tableMem)
	if cap(m.cells) < nCells {
		m.cells = make([]cell, nCells)
	}
	if cap(m.vals) < nVals {
		m.vals = make([]int64, nVals)
	}
	cells, vals := m.cells[:nCells], m.vals[:nVals]
	clear(cells)
	clear(vals)
	return cells, vals, m
}

// Release returns the table's bulk memory to the pool. Only the sole
// owner may call it, after which the table must not be used again (Peel
// outputs are fresh allocations and stay valid). Releasing is optional;
// unreleased tables are simply garbage collected.
func (t *Table) Release() {
	m := t.mem
	if m == nil {
		return
	}
	m.cells, m.vals = t.cells[:0], t.vals[:0]
	t.cells, t.vals, t.mem = nil, nil, nil
	tableMemPool.Put(m)
}

// New builds an empty table. It panics on an invalid config: geometry is
// fixed at construction by protocol parameters, so a bad config is a
// programming error.
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lay := peel.NewLayout(cfg.Cells, cfg.Seed, make([]hashx.Mixer, cfg.Q))
	n := lay.Cells()
	cells, vals, mem := newArrays(n, n*cfg.Dim)
	for i := range cells {
		cells[i].valSum = vals[i*cfg.Dim : (i+1)*cfg.Dim : (i+1)*cfg.Dim]
	}
	return &Table{cfg: cfg, lay: lay, cells: cells, vals: vals, mem: mem}
}

// Cells returns the number of cells.
func (t *Table) Cells() int { return len(t.cells) }

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

func (t *Table) checksum(key uint64) int64 {
	return int64(t.lay.Check.Hash(key) & (1<<checkBits - 1))
}

// Insert adds a key-value pair (Alice's side in Algorithm 1).
func (t *Table) Insert(key uint64, val metric.Point) { t.update(key, val, 1) }

// Delete removes a key-value pair (Bob's side). The pair need not have
// been inserted; un-canceled deletions surface as negative-count
// recoveries.
func (t *Table) Delete(key uint64, val metric.Point) { t.update(key, val, -1) }

func (t *Table) update(key uint64, val metric.Point, dir int64) {
	if key >= 1<<t.cfg.KeyBits {
		panic(fmt.Sprintf("riblt: key %#x exceeds %d bits", key, t.cfg.KeyBits))
	}
	if len(val) != t.cfg.Dim {
		panic(fmt.Sprintf("riblt: value dim %d, table dim %d", len(val), t.cfg.Dim))
	}
	t.items++
	if t.items > t.cfg.MaxItems {
		panic(fmt.Sprintf("riblt: %d items exceed MaxItems %d", t.items, t.cfg.MaxItems))
	}
	for j := 0; j < t.cfg.Q; j++ {
		c := &t.cells[t.lay.CellOf(key, j)]
		c.count += dir
		c.keySum += dir * int64(key)
		c.checkSum += dir * t.checksum(key)
		for i, v := range val {
			c.valSum[i] += dir * int64(v)
		}
	}
}

// Retract cancels one previous Insert of the same (key, value) pair:
// the cell updates are exactly Delete's, but the item accounting credits
// the pair back, so a long-lived incrementally maintained table (insert,
// retract, insert, …) is bounded by its *live* contents rather than its
// mutation history. After Retract the cells are field-identical to a
// table that never saw the pair — this is what makes incremental sketch
// maintenance bit-identical on the wire to a from-scratch build.
func (t *Table) Retract(key uint64, val metric.Point) {
	if t.items < 1 {
		panic("riblt: Retract on table with no items")
	}
	// Pre-credit both the original insert and this cancellation before
	// update's items++ so the MaxItems guard never sees a transient
	// overshoot at full capacity.
	t.items -= 2
	t.update(key, val, -1)
}

// Items returns the table's net item accounting (inserts plus deletes,
// minus retracted pairs).
func (t *Table) Items() int { return t.items }

// CellIndices appends to buf the q cell indices key maps to and returns
// the extended slice. The indices are the ones Insert/Delete/Retract
// touch, in hash order — incremental maintainers use them to journal
// churned cells for delta synchronization.
func (t *Table) CellIndices(key uint64, buf []int) []int {
	for j := 0; j < t.cfg.Q; j++ {
		buf = append(buf, t.lay.CellOf(key, j))
	}
	return buf
}

// Clone deep-copies the table, including value sums. The index hashes
// are immutable after New and shared.
func (t *Table) Clone() *Table {
	c := *t
	cells, vals, mem := newArrays(len(t.cells), len(t.vals))
	copy(vals, t.vals)
	dim := t.cfg.Dim
	for i := range cells {
		cells[i] = t.cells[i]
		cells[i].valSum = vals[i*dim : (i+1)*dim : (i+1)*dim]
	}
	c.cells, c.vals, c.mem = cells, vals, mem
	return &c
}

// Merge adds other's cells into t, as if every pair inserted (or
// deleted) in other had been applied to t directly. The tables must
// share one Config. Because every cell field is a sum, merging commutes
// with insertion order: per-shard tables built over point blocks and
// merged are field-identical — and therefore bit-identical on the wire —
// to a sequentially built table. The combined item count still honors
// MaxItems, so the overflow guarantees of Config.Validate hold.
func (t *Table) Merge(other *Table) error {
	if t.cfg != other.cfg {
		return fmt.Errorf("riblt: merge config mismatch: %+v vs %+v", t.cfg, other.cfg)
	}
	if t.items+other.items > t.cfg.MaxItems {
		return fmt.Errorf("riblt: merged %d items exceed MaxItems %d",
			t.items+other.items, t.cfg.MaxItems)
	}
	t.items += other.items
	for i := range t.cells {
		dst, src := &t.cells[i], &other.cells[i]
		dst.count += src.count
		dst.keySum += src.keySum
		dst.checkSum += src.checkSum
	}
	// Value sums merge over the flat backings — one cache-friendly pass
	// instead of a short loop per cell.
	for i, v := range other.vals {
		t.vals[i] += v
	}
	return nil
}

// Result is the outcome of peeling a table that held Alice-inserted and
// Bob-deleted pairs.
type Result struct {
	// Inserted holds pairs recovered with positive net count (Alice's
	// un-canceled pairs, the paper's XA).
	Inserted []Pair
	// Deleted holds pairs recovered with negative net count (Bob's
	// un-canceled pairs, the paper's XB).
	Deleted []Pair
	// Peels counts peeling steps (cells extracted), for the error
	// propagation tests.
	Peels int
}

// ErrStalled is returned when peeling stops before all counts reach
// zero: the difference hypergraph has a 2-core, mixed-key cells never
// became pure, or hostile cells would peel without end or extract more
// copies than MaxItems allows.
var ErrStalled = errors.New("riblt: peeling stalled")

// Peel inverts the table breadth-first, first-come first-served (§2.2
// item 1). Random rounding of
// averaged values consumes from src (the decoder's private randomness —
// it does not need to be shared). Peel consumes the table; value-only
// residue (count 0, key 0, checksum 0, nonzero value sum) is expected
// and does not count as failure — it is exactly the error left behind by
// close-but-unequal pairs whose keys canceled (Figure 1). A cell whose
// copies would take the total extracted past MaxItems is not peelable:
// MaxItems bounds inserts plus deletes, so only a hostile table gets
// there.
func (t *Table) Peel(src *rng.Source) (Result, error) {
	p := peeler{Table: *t, src: src, taken: cell{valSum: make([]int64, t.cfg.Dim)}, avg: make([]float64, t.cfg.Dim)}
	p.res.Peels = peel.Run(&t.lay, new(peel.Scratch), &p)
	if slices.ContainsFunc(t.cells, func(c cell) bool { return !c.empty() }) {
		return p.res, ErrStalled
	}
	return p.res, nil
}

// peeler lends a table, a copy sharing its cells, to peel.Run.
type peeler struct {
	Table
	src    *rng.Source
	res    Result
	copies int       // pairs extracted so far
	taken  cell      // the cell being peeled, value sum included
	avg    []float64 // its average value
}

// Pure reports whether cell i holds C net copies of one key, and which.
// This is the §2.2 item 5 test: count nonzero, key sum divisible by
// count, checksum sum equal to count times the checksum of the
// quotient. A cell whose copies would take the total extracted past
// MaxItems is not pure.
func (p *peeler) Pure(i int) (uint64, bool) {
	c, lim := &p.cells[i], int64(p.cfg.MaxItems-p.copies)
	if c.count == 0 || c.count < -lim || c.count > lim || c.keySum%c.count != 0 {
		return 0, false
	}
	k := c.keySum / c.count
	return uint64(k), k >= 0 && k < 1<<p.cfg.KeyBits && p.checksum(uint64(k))*c.count == c.checkSum
}

// Take extracts |count| pairs from pure cell i. Each pair's value is
// independently the randomized rounding of the clamped average V/C
// (§2.2 item 5).
func (p *peeler) Take(i int) (uint64, bool) {
	key, ok := p.Pure(i)
	if !ok {
		return 0, false
	}
	c := &p.cells[i]
	for d, v := range c.valSum {
		p.avg[d] = float64(v) / float64(c.count)
	}
	out, n := &p.res.Inserted, c.count
	if n < 0 {
		out, n = &p.res.Deleted, -n
	}
	for range n {
		*out = append(*out, Pair{Key: key, Value: roundClamped(p.avg, p.cfg.Delta, p.src)})
	}
	p.copies += int(n)
	p.taken.count, p.taken.keySum, p.taken.checkSum = c.count, c.keySum, c.checkSum
	copy(p.taken.valSum, c.valSum)
	return key, true
}

// Subtract removes the full taken cell — count, key sum, checksum sum,
// AND value sum including any accumulated error — from cell ci, and
// reports whether ci is pure now.
// Propagating the error is the paper's mechanism (Figure 1); zeroing
// only the taken cell would be a different (incorrect) data structure.
func (p *peeler) Subtract(ci int) bool {
	c, v := &p.cells[ci], &p.taken
	c.count -= v.count
	c.keySum -= v.keySum
	c.checkSum -= v.checkSum
	for d := range c.valSum {
		c.valSum[d] -= v.valSum[d]
	}
	_, pure := p.Pure(ci)
	return pure
}

// roundClamped clamps avg into [0, Delta] per coordinate and randomly
// rounds fractional coordinates up with probability equal to the
// fractional part — the unbiased rounding of §2.2 item 5.
func roundClamped(avg []float64, delta int32, src *rng.Source) metric.Point {
	out := make(metric.Point, len(avg))
	for i, v := range avg {
		if v < 0 {
			v = 0
		} else if v > float64(delta) {
			v = float64(delta)
		}
		fl := int32(v)
		frac := v - float64(fl)
		if frac > 0 && src.Float64() < frac {
			fl++
		}
		if fl > delta { // guard fl == delta with frac rounding up
			fl = delta
		}
		out[i] = fl
	}
	return out
}

// Encode serializes the table's cells. Counts, key sums, checksum sums
// and value sums are all varint-coded: in a reconciliation most cells are
// fully canceled, so the wire size tracks the difference, matching the
// paper's accounting of O(log(∆·n)) bits per occupied coordinate.
func (t *Table) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(t.cfg.Cells))
	e.WriteUvarint(uint64(t.cfg.Q))
	for i := range t.cells {
		t.EncodeCellAt(i, e)
	}
}

// EncodedBytes is the number of bytes Encode writes.
func (t *Table) EncodedBytes() int {
	n := transport.UvarintBytes(uint64(t.cfg.Cells)) + transport.UvarintBytes(uint64(t.cfg.Q))
	for i := range t.cells {
		n += t.EncodedCellBytes(i)
	}
	return n
}

// DecodeFrom reconstructs a table from the wire. cfg must match the
// sender's config (protocols fix it from shared parameters); the wire
// geometry is checked against it before the table is allocated, and on
// a later error the table goes back to the pool.
func DecodeFrom(d *transport.Decoder, cfg Config) (*Table, error) {
	cells, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	q, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if int(cells) != cfg.Cells || int(q) != cfg.Q {
		return nil, fmt.Errorf("riblt: wire geometry m=%d q=%d, expected m=%d q=%d",
			cells, q, cfg.Cells, cfg.Q)
	}
	t := New(cfg)
	for i := range t.cells {
		if err := t.PatchCellAt(i, d); err != nil {
			t.Release()
			return nil, err
		}
	}
	return t, nil
}

// EncodeLevels serializes level tables as one protocol message — the
// level count, then each table — in one allocation of exactly its size.
// Algorithm 1 and the quadtree baseline both send this message.
func EncodeLevels(tables []*Table) []byte {
	size := transport.UvarintBytes(uint64(len(tables)))
	for _, t := range tables {
		size += t.EncodedBytes()
	}
	e := transport.NewEncoder()
	e.Grow(size)
	e.WriteUvarint(uint64(len(tables)))
	for _, t := range tables {
		t.Encode(e)
	}
	data, _ := e.Pack()
	return data
}

// DecodeLevels reads a message written by EncodeLevels whose tables
// have the configs cfgs, one per level. Every table's geometry is
// checked before it is allocated, so a hostile message allocates no
// more than cfgs fix. On an error the tables already decoded go back to
// the pool.
func DecodeLevels(d *transport.Decoder, cfgs []Config) ([]*Table, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(len(cfgs)) {
		return nil, fmt.Errorf("riblt: message has %d levels, expected %d", n, len(cfgs))
	}
	tables := make([]*Table, len(cfgs))
	for i, cfg := range cfgs {
		if tables[i], err = DecodeFrom(d, cfg); err != nil {
			ReleaseAll(tables[:i])
			return nil, err
		}
	}
	return tables, nil
}

// ReleaseAll releases every table (see Release).
func ReleaseAll(tables []*Table) {
	for _, t := range tables {
		t.Release()
	}
}

// PeelFinest peels the level tables from the last (finest) down and
// stops at the first that peels fully to at most limit pairs — the
// decode rule of Algorithm 1 and of the quadtree baseline. It returns
// that level's index and its recovered values: xa inserted (Alice's),
// xb deleted (Bob's). level is −1 when no table decodes. Peeling
// consumes the tables it tries.
func PeelFinest(tables []*Table, src *rng.Source, limit int) (level int, xa, xb metric.PointSet) {
	for i := len(tables) - 1; i >= 0; i-- {
		res, err := tables[i].Peel(src)
		if err != nil || len(res.Inserted)+len(res.Deleted) > limit {
			continue
		}
		return i, values(res.Inserted), values(res.Deleted)
	}
	return -1, nil, nil
}

// values returns the pairs' values.
func values(pairs []Pair) metric.PointSet {
	out := make(metric.PointSet, len(pairs))
	for i, pr := range pairs {
		out[i] = pr.Value
	}
	return out
}

// EncodeCellAt serializes cell i alone (same varint layout as Encode
// uses per cell). Delta synchronization ships only churned cells this
// way: absolute field values, so applying a patch is idempotent and
// independent of how many mutations produced it.
func (t *Table) EncodeCellAt(i int, e *transport.Encoder) {
	c := &t.cells[i]
	e.WriteVarint(c.count)
	e.WriteVarint(c.keySum)
	e.WriteVarint(c.checkSum)
	for _, v := range c.valSum {
		e.WriteVarint(v)
	}
}

// EncodedCellBytes is the number of bytes EncodeCellAt writes for cell i.
func (t *Table) EncodedCellBytes(i int) int {
	c := &t.cells[i]
	n := transport.VarintBytes(c.count) + transport.VarintBytes(c.keySum) + transport.VarintBytes(c.checkSum)
	for _, v := range c.valSum {
		n += transport.VarintBytes(v)
	}
	return n
}

// PatchCellAt overwrites cell i with fields read from d (the inverse of
// EncodeCellAt). The caller is responsible for item accounting: a
// patched table is a mirror of a remote table's cells, not a locally
// maintained one, so items is left untouched.
func (t *Table) PatchCellAt(i int, d *transport.Decoder) error {
	if i < 0 || i >= len(t.cells) {
		return fmt.Errorf("riblt: patch index %d out of %d cells", i, len(t.cells))
	}
	c := &t.cells[i]
	var err error
	if c.count, err = d.ReadVarint(); err != nil {
		return err
	}
	if c.keySum, err = d.ReadVarint(); err != nil {
		return err
	}
	if c.checkSum, err = d.ReadVarint(); err != nil {
		return err
	}
	for j := range c.valSum {
		if c.valSum[j], err = d.ReadVarint(); err != nil {
			return err
		}
	}
	return nil
}

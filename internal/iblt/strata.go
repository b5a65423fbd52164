package iblt

import (
	"fmt"
	"math/bits"

	"repro/internal/hashx"
	"repro/internal/peel"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Strata is the strata estimator of Eppstein, Goodrich, Uyeda & Varghese
// ("What's the difference?", SIGCOMM 2011, the paper's reference [10]).
// It estimates the size of a set difference without prior context, which
// the reconciliation protocols need to size their IBLTs: the paper's
// bounds all assume a known difference bound k or d, and the estimator is
// how a deployment obtains one.
//
// Each element is assigned to stratum i with probability 2^-(i+1) (by
// counting trailing zeros of a shared hash) and inserted into a small
// per-stratum IBLT. Subtracting two estimators and peeling strata from
// the deepest down yields an unbiased difference estimate.
//
// An estimator is built once, from its keys (NewStrataFromKeys), or
// decoded from a peer's bits (DecodeStrata), and is read-only after
// that. Its levels' cells and index mixers each live in one array.
type Strata struct {
	assign hashx.Mixer
	perLvl int
	levels [StrataLevels]Table
}

// StrataLevels is the number of strata; 32 suffices for differences up to
// ~2^32 elements.
const StrataLevels = 32

// StrataCells is the per-stratum table size of every estimator the
// protocols ship: the customary 80 cells of [10].
const StrataCells = 80

// strataQ is the number of hash functions of every stratum's table.
const strataQ = 3

// newStrata lays out an empty estimator whose per-stratum tables have
// cellsPerLevel cells. The seed draws the stratum-assignment mixer, then
// one table seed per level, in level order.
func newStrata(cellsPerLevel int, seed uint64) *Strata {
	src := rng.New(seed)
	s := &Strata{assign: hashx.NewMixer(src), perLvl: cellsPerLevel}
	idx := make([]hashx.Mixer, StrataLevels*strataQ)
	for i := range s.levels {
		s.levels[i].lay = peel.NewLayout(cellsPerLevel, src.Uint64(), idx[i*strataQ:(i+1)*strataQ:(i+1)*strataQ])
	}
	n := s.levels[0].lay.Cells()
	cells := make([]Cell, StrataLevels*n)
	for i := range s.levels {
		s.levels[i].cells = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return s
}

// NewStrataFromKeys builds an estimator over every key, batching the
// stratum-assignment hashing into a fixed scratch block. Cells are XOR
// and sum folds, so the result depends on the keys, not their order.
// Trailing ints are ignored; they keep the benchmark harness's
// four-argument call (bench/sut.go) compiling.
func NewStrataFromKeys(cellsPerLevel int, seed uint64, keys []uint64, _ ...int) *Strata {
	s := newStrata(cellsPerLevel, seed)
	var assigned [256]uint64
	for len(keys) > 0 {
		n := min(len(keys), len(assigned))
		s.assign.HashInto(assigned[:n], keys[:n])
		for i, key := range keys[:n] {
			s.levels[bits.TrailingZeros64(assigned[i]|1<<(StrataLevels-1))].Insert(key)
		}
		keys = keys[n:]
	}
	return s
}

// Estimate returns an estimate of |difference| (keys on either side)
// between s and other, leaving both unchanged: each level is subtracted
// into one reused table and peeled by one peeler, counting peels
// rather than listing keys. Peeling proceeds from the deepest stratum;
// the first stratum that fails to decode determines the scaling factor
// 2^(i+1) applied to the differences counted so far.
func (s *Strata) Estimate(other *Strata) (int, error) {
	if s.perLvl != other.perLvl {
		return 0, fmt.Errorf("iblt: strata geometry mismatch")
	}
	var p peeler
	t := Table{exact{cells: make([]Cell, len(s.levels[0].cells))}}
	count := 0
	for i := StrataLevels - 1; i >= 0; i-- {
		t.lay = s.levels[i].lay
		copy(t.cells, s.levels[i].cells)
		if err := t.Subtract(&other.levels[i]); err != nil {
			return 0, err
		}
		peels, ok := p.decode(&t.exact)
		if !ok {
			// Stratum i failed: scale up what deeper strata recovered.
			return count << uint(i+1), nil
		}
		count += peels
	}
	return count, nil
}

// Encode serializes the estimator.
func (s *Strata) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(s.perLvl))
	for i := range s.levels {
		s.levels[i].Encode(e)
	}
}

// DecodeStrata deserializes an estimator built with the given seed. It
// refuses a level whose geometry differs from the one its cells-per-level
// header lays out, and a header whose layout the rest of the frame
// cannot fill.
func DecodeStrata(d *transport.Decoder, seed uint64) (*Strata, error) {
	perLvl, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// Every cell costs at least 3 bytes on the wire (see readGeometry),
	// so the layout is bounded by the frame before it is allocated.
	if perLvl == 0 || perLvl > 1<<20 || StrataLevels*perLvl > uint64(d.Remaining())/3 {
		return nil, fmt.Errorf("iblt: implausible strata size %d for %d remaining bytes", perLvl, d.Remaining())
	}
	s := newStrata(int(perLvl), seed)
	for i := range s.levels {
		t := &s.levels[i]
		q, cellsPerQ, _, err := readGeometry(d, false)
		if err != nil {
			return nil, err
		}
		if q != t.Q() || cellsPerQ != t.Cells()/t.Q() {
			return nil, fmt.Errorf("iblt: strata level %d has geometry q=%d cells/q=%d, want q=%d cells/q=%d",
				i, q, cellsPerQ, t.Q(), t.Cells()/t.Q())
		}
		if err := readCells(d, t.cells); err != nil {
			return nil, err
		}
	}
	return s, nil
}

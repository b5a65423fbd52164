package iblt

import (
	"fmt"
	"math/bits"

	"repro/internal/hashx"
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
type Strata struct {
	levels []*Table
	assign hashx.Mixer
	perLvl int
}

// StrataLevels is the number of strata; 32 suffices for differences up to
// ~2^32 elements.
const StrataLevels = 32

// StrataCells is the per-stratum table size of every estimator the
// protocols ship: the customary 80 cells of [10].
const StrataCells = 80

// NewStrata builds an estimator whose per-stratum tables have cellsPerLevel
// cells (StrataCells on every wire protocol).
func NewStrata(cellsPerLevel int, seed uint64) *Strata {
	src := rng.New(seed)
	assign := hashx.NewMixer(src)
	s := &Strata{levels: make([]*Table, StrataLevels), assign: assign, perLvl: cellsPerLevel}
	for i := range s.levels {
		s.levels[i] = New(cellsPerLevel, 3, src.Uint64())
	}
	return s
}

// NewStrataFromKeys builds an estimator over every key. Trailing ints
// are ignored; they keep the benchmark harness's four-argument call
// (bench/sut.go) compiling.
func NewStrataFromKeys(cellsPerLevel int, seed uint64, keys []uint64, _ ...int) *Strata {
	s := NewStrata(cellsPerLevel, seed)
	s.InsertAll(keys)
	return s
}

// Insert adds a key to its stratum.
func (s *Strata) Insert(key uint64) {
	lvl := bits.TrailingZeros64(s.assign.Hash(key) | 1<<(StrataLevels-1))
	s.levels[lvl].Insert(key)
}

// InsertAll adds every key of keys, batching the stratum-assignment
// hashing into a fixed scratch block. Equivalent to inserting one at a
// time.
func (s *Strata) InsertAll(keys []uint64) {
	var assigned [256]uint64
	for len(keys) > 0 {
		n := min(len(keys), len(assigned))
		s.assign.HashInto(assigned[:n], keys[:n])
		for i, key := range keys[:n] {
			lvl := bits.TrailingZeros64(assigned[i] | 1<<(StrataLevels-1))
			s.levels[lvl].Insert(key)
		}
		keys = keys[n:]
	}
}

// Delete removes a key from its stratum. Because stratum assignment is a
// pure function of the key and every cell field combines by XOR or
// addition, deleting a previously inserted key restores the estimator
// exactly — a live set can therefore maintain one estimator under churn
// instead of rebuilding it per session.
func (s *Strata) Delete(key uint64) {
	lvl := bits.TrailingZeros64(s.assign.Hash(key) | 1<<(StrataLevels-1))
	s.levels[lvl].Delete(key)
}

// Clone deep-copies the estimator, for serving a consistent snapshot
// while the original keeps mutating.
func (s *Strata) Clone() *Strata {
	c := &Strata{levels: make([]*Table, len(s.levels)), assign: s.assign, perLvl: s.perLvl}
	for i, t := range s.levels {
		c.levels[i] = t.Clone()
	}
	return c
}

// Estimate subtracts other from a copy of s and returns an estimate of
// |difference| (keys on either side). Peeling proceeds from the deepest
// stratum; the first stratum that fails to decode determines the scaling
// factor 2^(i+1) applied to the differences counted so far.
func (s *Strata) Estimate(other *Strata) (int, error) {
	if s.perLvl != other.perLvl {
		return 0, fmt.Errorf("iblt: strata geometry mismatch")
	}
	count := 0
	for i := StrataLevels - 1; i >= 0; i-- {
		t := s.levels[i].Clone()
		if err := t.Subtract(other.levels[i]); err != nil {
			return 0, err
		}
		add, rem, err := t.Decode()
		if err != nil {
			// Stratum i failed: scale up what deeper strata recovered.
			return count << uint(i+1), nil
		}
		count += len(add) + len(rem)
	}
	return count, nil
}

// Encode serializes the estimator.
func (s *Strata) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(s.perLvl))
	for _, t := range s.levels {
		t.Encode(e)
	}
}

// DecodeStrata deserializes an estimator built with the given seed.
func DecodeStrata(d *transport.Decoder, seed uint64) (*Strata, error) {
	perLvl, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if perLvl == 0 || perLvl > 1<<20 {
		return nil, fmt.Errorf("iblt: implausible strata size %d", perLvl)
	}
	src := rng.New(seed)
	assign := hashx.NewMixer(src)
	s := &Strata{levels: make([]*Table, StrataLevels), assign: assign, perLvl: int(perLvl)}
	for i := range s.levels {
		lvlSeed := src.Uint64()
		t, err := DecodeFrom(d, lvlSeed)
		if err != nil {
			return nil, err
		}
		s.levels[i] = t
	}
	return s, nil
}

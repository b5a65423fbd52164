package emd

import (
	"fmt"
	"sort"

	"repro/internal/metric"
	"repro/internal/riblt"
	"repro/internal/transport"
)

// Sketch is Alice's EMD protocol state as a long-lived, incrementally
// maintained object: the t level-RIBLTs of her current point set. RIBLT
// cells hold sums, so inserting and retracting a point are exact
// inverses, and a point mutation costs one evaluation of the plan's
// active MLSH draws (a handful under DefaultParams on Hamming sets, all
// s on ℓ1/ℓ2) plus q cell updates per level, instead of a rebuild over
// all n points. After any mutation sequence the sketch is
// field-identical, and therefore bit-identical on the wire, to a
// from-scratch build over the same multiset (asserted by
// TestSketchIncrementalGolden).
//
// A Sketch is not safe for concurrent mutation. Its read-only methods
// (Encode, EncodeCells, Apply) may run concurrently with each other;
// internal/live keeps one sketch per set, mutates it under its write
// lock and encodes from it under its read lock.
type Sketch struct {
	pl      *plan
	tables  []*riblt.Table
	scratch []uint64  // MLSH value scratch (one per active draw)
	keys    []uint64  // per-level key scratch (t wide)
	refs    []CellRef // churn scratch, reused across mutations
}

// newSketch wraps tables in a Sketch with its mutation scratch.
func newSketch(pl *plan, tables []*riblt.Table) *Sketch {
	return &Sketch{
		pl:      pl,
		tables:  tables,
		scratch: make([]uint64, pl.kern.Active()),
		keys:    make([]uint64, pl.levels),
	}
}

// CellRef names one RIBLT cell of one resolution level; mutations
// report the cells they churned so a live set can journal them for
// delta synchronization.
type CellRef struct {
	Level int
	Cell  int
}

// NewSketch builds an empty sketch. Params.N acts as a capacity bound:
// the live multiset must never exceed N points (the RIBLT overflow
// guards are sized from it).
func NewSketch(p Params) (*Sketch, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	tables := make([]*riblt.Table, pl.levels)
	for i := range tables {
		tables[i] = riblt.New(pl.cfgs[i])
	}
	return newSketch(pl, tables), nil
}

// BuildSketch builds a sketch over pts from scratch, sharding the MLSH
// evaluation and insertions by point block (see parallel.go). Unlike
// BuildMessage it does not require len(pts) == Params.N — N is the
// capacity bound, and a live set churns below it.
func BuildSketch(p Params, pts metric.PointSet) (*Sketch, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	if len(pts) > pl.params.N {
		return nil, fmt.Errorf("emd: %d points exceed capacity N=%d", len(pts), pl.params.N)
	}
	tables, err := pl.buildTables(pts)
	if err != nil {
		return nil, err
	}
	return newSketch(pl, tables), nil
}

// DecodeSketch reconstructs a sketch from a full protocol message (the
// receiver's side of the delta-sync fast path caches one and patches
// churned cells on later sessions).
func DecodeSketch(p Params, msg []byte) (*Sketch, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	tables, err := riblt.DecodeLevels(transport.NewDecoder(msg), pl.cfgs)
	if err != nil {
		return nil, err
	}
	return newSketch(pl, tables), nil
}

// Levels returns t, the number of resolution levels.
func (s *Sketch) Levels() int { return s.pl.levels }

// Cells returns the per-level cell count (identical across levels).
func (s *Sketch) Cells() int { return s.tables[0].Cells() }

// Add inserts one point: one evaluation of the active MLSH draws, then q
// cell updates per level. It returns the churned cells in a scratch
// slice owned by the sketch — valid only until the next mutation;
// callers that retain the refs (a journal) copy them out first.
func (s *Sketch) Add(pt metric.Point) []CellRef {
	return s.mutate(pt, true)
}

// Remove retracts one previously added point (same cost as Add, same
// scratch-return contract). The caller must ensure the point is in the
// maintained multiset; internal/live tracks membership.
func (s *Sketch) Remove(pt metric.Point) []CellRef {
	return s.mutate(pt, false)
}

func (s *Sketch) mutate(pt metric.Point, add bool) []CellRef {
	keys := s.pl.keysInto(s.keys, pt, s.scratch)
	refs := s.refs[:0]
	var buf [8]int
	for i, key := range keys {
		if add {
			s.tables[i].Insert(key, pt)
		} else {
			s.tables[i].Retract(key, pt)
		}
		for _, c := range s.tables[i].CellIndices(key, buf[:0]) {
			refs = append(refs, CellRef{Level: i, Cell: c})
		}
	}
	s.refs = refs
	return refs
}

// Encode serializes the sketch as the protocol's single message,
// bit-identical to BuildMessage over the same multiset, in one
// allocation of exactly its size.
func (s *Sketch) Encode() []byte { return riblt.EncodeLevels(s.tables) }

// Fingerprint hashes the encoded sketch (FNV-1a over the wire bytes).
// Delta-sync replies carry it so a receiver can detect cache divergence
// after patching instead of reconciling against garbage. Callers that
// already hold the encoded message should use FingerprintMessage to
// avoid re-encoding.
func (s *Sketch) Fingerprint() uint64 { return FingerprintMessage(s.Encode()) }

// FingerprintMessage is Fingerprint over an already-encoded message.
func FingerprintMessage(msg []byte) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	for _, b := range msg {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// SortCellRefs orders refs by (level, cell) and drops duplicates, the
// canonical order EncodeCells expects.
func SortCellRefs(refs []CellRef) []CellRef {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Level != refs[j].Level {
			return refs[i].Level < refs[j].Level
		}
		return refs[i].Cell < refs[j].Cell
	})
	out := refs[:0]
	for i, r := range refs {
		if i == 0 || r != refs[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// EncodeCells serializes the named cells with their absolute current
// values — the delta-sync payload — in one allocation of exactly its
// size. refs must be sorted and deduplicated (SortCellRefs).
func (s *Sketch) EncodeCells(refs []CellRef) []byte {
	size := transport.UvarintBytes(uint64(len(refs)))
	for _, r := range refs {
		size += transport.UvarintBytes(uint64(r.Level)) + transport.UvarintBytes(uint64(r.Cell)) +
			s.tables[r.Level].EncodedCellBytes(r.Cell)
	}
	e := transport.NewEncoder()
	e.Grow(size)
	e.WriteUvarint(uint64(len(refs)))
	for _, r := range refs {
		e.WriteUvarint(uint64(r.Level))
		e.WriteUvarint(uint64(r.Cell))
		s.tables[r.Level].EncodeCellAt(r.Cell, e)
	}
	data, _ := e.Pack()
	return data
}

// ApplyCells patches the sketch with a delta payload produced by
// EncodeCells: each listed cell is overwritten with its absolute remote
// value, bringing a cached sketch up to the sender's epoch.
func (s *Sketch) ApplyCells(patch []byte) error {
	d := transport.NewDecoder(patch)
	n, err := d.ReadUvarint()
	if err != nil {
		return err
	}
	total := uint64(s.pl.levels) * uint64(s.tables[0].Cells())
	if n > total {
		return fmt.Errorf("emd: delta patches %d cells, sketch has %d", n, total)
	}
	for i := uint64(0); i < n; i++ {
		lvl, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		if lvl >= uint64(s.pl.levels) {
			return fmt.Errorf("emd: delta names level %d of %d", lvl, s.pl.levels)
		}
		cell, err := d.ReadUvarint()
		if err != nil {
			return err
		}
		if err := s.tables[lvl].PatchCellAt(int(cell), d); err != nil {
			return err
		}
	}
	return nil
}

// Apply runs Bob's side of Algorithm 1 against the sketch: his pairs
// are deleted from a clone of the tables (the sketch itself is not
// consumed), the finest decodable level is peeled, and S′B assembled.
func (s *Sketch) Apply(sb metric.PointSet) (Result, error) {
	tables := make([]*riblt.Table, len(s.tables))
	for i, t := range s.tables {
		tables[i] = t.Clone()
	}
	return applyTables(s.pl, sb, tables), nil
}

package emd

import (
	"repro/internal/metric"
	"repro/internal/parallel"
	"repro/internal/riblt"
)

// Sharded sketch construction. The two hot loops of Algorithm 1 — MLSH
// key evaluation (one application per active draw per point) and RIBLT
// insertion (q cell updates per level per point) — are both
// order-independent: keys depend only on the point and the shared draw,
// and RIBLT cells hold sums, which commute. Points are therefore sharded
// into blocks, each worker builds private per-level tables, and the
// shards merge cell-wise (riblt.Merge). The merged tables are
// field-identical to a sequential build, so the encoded wire bytes are
// bit-identical for any worker count — asserted by TestShardedBuildGolden.

// minBlock is the smallest point block worth a goroutine (each point
// costs its active LSH evaluations plus t key steps and q·t cell updates,
// heavier than one IBLT key insert).
const minBlock = 16

// levelKeys computes every point's per-level keys into one flat
// preallocated slice — point-major, so out[i*levels:(i+1)*levels] holds
// point i's key per level — sharding the MLSH evaluation across workers
// by point block. The layout is positionally deterministic regardless of
// worker count, and the whole batch costs two allocations (the flat
// output plus per-worker scratch). The drawn Funcs and the key hasher
// are immutable after plan construction, so concurrent evaluation is
// safe.
func (pl *plan) levelKeys(pts metric.PointSet, workers int) []uint64 {
	t := pl.levels
	out := make([]uint64, len(pts)*t)
	w := parallel.Workers(workers, len(pts), minBlock)
	if w == 1 {
		scratch := make([]uint64, len(pl.active))
		for i, p := range pts {
			pl.keysInto(out[i*t:(i+1)*t], p, scratch)
		}
		return out
	}
	parallel.Shard(len(pts), w, func(_, lo, hi int) {
		scratch := make([]uint64, len(pl.active))
		for i := lo; i < hi; i++ {
			pl.keysInto(out[i*t:(i+1)*t], pts[i], scratch)
		}
	})
	return out
}

// buildTables constructs Alice's t level-RIBLTs over sa, sharding both
// the key evaluation and the insertions across workers.
func (pl *plan) buildTables(sa metric.PointSet, workers int) ([]*riblt.Table, error) {
	newTables := func() []*riblt.Table {
		ts := make([]*riblt.Table, pl.levels)
		for i := range ts {
			ts[i] = riblt.New(pl.cfgs[i])
		}
		return ts
	}
	w := parallel.Workers(workers, len(sa), minBlock)
	if w == 1 {
		tables := newTables()
		scratch := make([]uint64, len(pl.active))
		keys := make([]uint64, pl.levels)
		for _, a := range sa {
			pl.keysInto(keys, a, scratch)
			for i, key := range keys {
				tables[i].Insert(key, a)
			}
		}
		return tables, nil
	}
	shards := make([][]*riblt.Table, w)
	parallel.Shard(len(sa), w, func(b, lo, hi int) {
		ts := newTables()
		scratch := make([]uint64, len(pl.active))
		keys := make([]uint64, pl.levels)
		for _, a := range sa[lo:hi] {
			pl.keysInto(keys, a, scratch)
			for i, key := range keys {
				ts[i].Insert(key, a)
			}
		}
		shards[b] = ts
	})
	merged := shards[0]
	for _, ts := range shards[1:] {
		if ts == nil {
			continue
		}
		for i := range merged {
			if err := merged[i].Merge(ts[i]); err != nil {
				return nil, err
			}
			// Shard memory goes straight back to the riblt pool — the
			// sharded build no longer allocates per shard in steady
			// state.
			ts[i].Release()
		}
	}
	return merged, nil
}

package emd

import (
	"runtime"
	"sync"

	"repro/internal/metric"
	"repro/internal/riblt"
)

// Sharded sketch construction. The two hot loops of Algorithm 1 — MLSH
// key evaluation (one application per active draw per point) and RIBLT
// insertion (q cell updates per level per point) — are both
// order-independent: keys depend only on the point and the shared draw,
// and RIBLT cells hold sums, which commute. Points are therefore sharded
// into blocks, each block builds private per-level tables, and the
// shards merge cell-wise (riblt.Merge). The merged tables are
// field-identical to a sequential build, so the encoded wire bytes are
// bit-identical for any GOMAXPROCS — asserted by TestShardedBuildGolden.
// The block count is derived from the machine and the input size; there
// is no knob.

// minBlock is the smallest point block worth a goroutine (each point
// costs its active LSH evaluations plus t key steps and q·t cell updates,
// heavier than one IBLT key insert).
const minBlock = 16

// shardCount is the block count for n points: GOMAXPROCS, capped so each
// block holds at least minBlock points (tiny inputs stay sequential —
// goroutine startup would dominate).
func shardCount(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), (n+minBlock-1)/minBlock))
}

// shard runs fn(b, lo, hi) over at most w contiguous non-empty blocks
// partitioning [0, n) in order — the last block on the calling goroutine,
// the others on one goroutine each — and waits for all of them. n == 0
// yields the single empty block (0, 0, 0).
func shard(n, w int, fn func(b, lo, hi int)) {
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for b := 0; ; b++ {
		lo := b * chunk
		hi := min(lo+chunk, n)
		if hi == n {
			fn(b, lo, hi)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(b, lo, hi)
		}()
	}
	wg.Wait()
}

// levelKeys computes every point's per-level keys into one flat
// preallocated slice — point-major, so out[i*levels:(i+1)*levels] holds
// point i's key per level — sharding the MLSH evaluation by point block.
// The layout is positionally deterministic regardless of block count,
// and the whole batch costs the flat output plus one scratch per block.
// The kernel and the key hasher are immutable after plan construction,
// so concurrent evaluation is safe.
func (pl *plan) levelKeys(pts metric.PointSet) []uint64 {
	t := pl.levels
	out := make([]uint64, len(pts)*t)
	shard(len(pts), shardCount(len(pts)), func(_, lo, hi int) {
		scratch := make([]uint64, pl.kern.Active())
		for i := lo; i < hi; i++ {
			pl.keysInto(out[i*t:(i+1)*t], pts[i], scratch)
		}
	})
	return out
}

// buildTables constructs Alice's t level-RIBLTs over sa, sharding both
// the key evaluation and the insertions by point block.
func (pl *plan) buildTables(sa metric.PointSet) ([]*riblt.Table, error) {
	w := shardCount(len(sa))
	shards := make([][]*riblt.Table, w)
	shard(len(sa), w, func(b, lo, hi int) {
		ts := make([]*riblt.Table, pl.levels)
		for i := range ts {
			ts[i] = riblt.New(pl.cfgs[i])
		}
		scratch := make([]uint64, pl.kern.Active())
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

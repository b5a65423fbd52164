package gap

import (
	"repro/internal/metric"
	"repro/internal/parallel"
)

// keyBatch computes every element's key, sharding the h·m LSH
// evaluations across workers by point block. The keys are flat: element
// i's key is out[i·h : (i+1)·h], so the output — and everything derived
// from it, including the setsets children that go on the wire — is
// identical for any worker count. Each shard has its own batch scratch;
// the keyer's drawn functions and entry hashers are immutable after plan
// construction, so concurrent evaluation is safe.
func (pl *plan) keyBatch(pts metric.PointSet) []uint64 {
	const minBlock = 8
	h := pl.h
	out := make([]uint64, len(pts)*h)
	keyRange := func(lo, hi int) {
		batch := make([]uint64, pl.ky.m)
		for i := lo; i < hi; i++ {
			pl.ky.keyInto(out[i*h:(i+1)*h], batch, pts[i])
		}
	}
	w := parallel.Workers(pl.params.Workers, len(pts), minBlock)
	if w == 1 {
		keyRange(0, len(pts))
		return out
	}
	parallel.Shard(len(pts), w, func(_, lo, hi int) { keyRange(lo, hi) })
	return out
}

package emd

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/transport"
)

// ScaledResult reports a run of the interval-scaling strategy of
// Corollary 3.6.
type ScaledResult struct {
	Result
	// Interval is the index of the smallest interval that succeeded.
	Interval int
	// Intervals is the total number of sub-protocols run.
	Intervals int
}

// ReconcileScaled runs the Corollary 3.6 strategy: the range [D1, D2] is
// split into I = O(log(D2/D1)) intervals of constant ratio, Algorithm 1
// runs once per interval (with the MLSH width tuned to that interval's
// D2, which keeps s small), and Bob adopts the output of the smallest
// interval that did not fail.
//
// All sub-protocols are independent one-message runs that Alice would
// send together, so the reported Stats merge their traffic and count a
// single round, matching the paper's accounting.
func ReconcileScaled(p Params, sa, sb metric.PointSet) (ScaledResult, error) {
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return ScaledResult{}, err
	}
	const ratio = 2.0
	intervals := int(math.Ceil(math.Log2(p.D2 / p.D1)))
	if intervals < 1 {
		intervals = 1
	}
	var merged transport.Stats
	var best *Result
	bestIdx := -1
	for j := 0; j < intervals; j++ {
		lo := p.D1 * math.Pow(ratio, float64(j))
		hi := math.Min(lo*ratio, p.D2)
		sub := p
		sub.D1, sub.D2 = lo, hi
		sub.Seed = p.Seed + uint64(j+1)*0x9e3779b97f4a7c15
		res, err := Reconcile(sub, sa, sb)
		if err != nil {
			return ScaledResult{}, fmt.Errorf("emd: interval %d [%g,%g]: %w", j, lo, hi, err)
		}
		merged = merged.Add(res.Stats)
		if !res.Failed && best == nil {
			r := res
			best, bestIdx = &r, j
		}
	}
	merged.Rounds = 1 // parallel composition: one physical message
	if best == nil {
		return ScaledResult{
			Result:    Result{Failed: true, Stats: merged},
			Interval:  -1,
			Intervals: intervals,
		}, nil
	}
	best.Stats = merged
	return ScaledResult{Result: *best, Interval: bestIdx, Intervals: intervals}, nil
}

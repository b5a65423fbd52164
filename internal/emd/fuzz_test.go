package emd

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// fuzzParams is a small Algorithm 1 shape: t = 6 levels of 72 cells
// over [255]^4, so one fuzz input decodes in microseconds.
func fuzzParams() Params {
	return Params{Space: metric.Grid(255, 4, metric.L1), N: 16, K: 2, D1: 2, D2: 64, Seed: 21}
}

// measured runs f three times and returns the least number of bytes one
// run allocated. The count is process-wide, so the fuzzing engine's
// goroutines can only add to it.
func measured(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var least uint64
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	return least
}

// FuzzApplyMessage drives the three readers of a peer's level tables —
// ApplyMessage and DecodeSketch on a full message, Sketch.ApplyCells on
// a live-emd delta — with the same bytes. None may panic. What a decode
// allocates is fixed by Params: a table is allocated only once its
// geometry header matched, so an input allocates at most one table per
// table's worth of wire bytes it holds (each cell takes at least 3 + d
// bytes), plus one, never more than the t tables of a valid message.
// A patch allocates nothing beyond a constant. ApplyMessage and
// DecodeSketch accept exactly the same inputs, and on an accepted one
// ApplyMessage's output is what Apply on the decoded sketch gives.
func FuzzApplyMessage(f *testing.F) {
	p := fuzzParams()
	src := rng.New(5)
	sa := make(metric.PointSet, p.N)
	for i := range sa {
		sa[i] = randomPoint(p.Space, src)
	}
	sb := append(sa[:p.N-2:p.N-2].Clone(), randomPoint(p.Space, src), randomPoint(p.Space, src))
	msg, err := BuildMessage(p, sa)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := DecodeSketch(p, msg)
	if err != nil {
		f.Fatal(err)
	}
	levels, cells := sk.Levels(), sk.Cells()
	runtime.GC()
	runtime.GC() // empty the riblt pool: a cold decode is the most a decode allocates
	perTable := measured(func() { DecodeSketch(p, msg) }) / uint64(levels)
	minTableBytes := cells * (3 + p.Space.Dim)
	decodeBound := func(n int) uint64 {
		return uint64(min(n/minTableBytes+1, levels))*perTable + 4096
	}
	const patchBound = 4096

	f.Add(msg)
	f.Add(msg[:len(msg)/2])
	f.Add(sk.EncodeCells(SortCellRefs(append([]CellRef(nil), sk.Add(randomPoint(p.Space, src))...))))
	f.Add(sk.EncodeCells(nil))
	f.Add([]byte{})
	f.Add([]byte{6, 72, 3, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Sketch
		var decErr error
		if alloc := measured(func() { got, decErr = DecodeSketch(p, data) }); alloc > decodeBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), alloc, decodeBound(len(data)))
		}
		res, err := ApplyMessage(p, sb, data)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("ApplyMessage error %v, DecodeSketch error %v", err, decErr)
		}
		if err == nil {
			if !res.Failed && len(res.SPrime) != p.N {
				t.Fatalf("|S'B| = %d, want %d", len(res.SPrime), p.N)
			}
			viaSketch, err := got.Apply(sb)
			if err != nil {
				t.Fatal(err)
			}
			viaSketch.Stats = res.Stats
			if !reflect.DeepEqual(viaSketch, res) {
				t.Fatalf("Apply on the decoded sketch differs from ApplyMessage: level %d vs %d", viaSketch.Level, res.Level)
			}
		}

		base, err := DecodeSketch(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := measured(func() { base.ApplyCells(data) }); alloc > patchBound {
			t.Fatalf("patching with %d bytes allocated %d, bound %d", len(data), alloc, patchBound)
		}
	})
}

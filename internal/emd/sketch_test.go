package emd

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

func sketchTestParams() Params {
	return Params{
		Space: metric.HammingCube(64),
		N:     32, K: 3, D1: 2, D2: 64,
		Seed: 7,
	}
}

func randomPoint(space metric.Space, src *rng.Source) metric.Point {
	pt := make(metric.Point, space.Dim)
	for i := range pt {
		pt[i] = int32(src.Uint64() % uint64(space.Delta+1))
	}
	return pt
}

// TestSketchIncrementalGolden: after any random Add/Remove sequence the
// incrementally maintained sketch encodes bit-identically to a
// from-scratch build over the same multiset, and — at full capacity —
// to the BuildMessage wire path itself.
func TestSketchIncrementalGolden(t *testing.T) {
	p := sketchTestParams()
	sk, err := NewSketch(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	var set metric.PointSet
	for op := 0; op < 400; op++ {
		if len(set) > 0 && (len(set) >= p.N || src.Uint64()%2 == 0) {
			i := int(src.Uint64() % uint64(len(set)))
			sk.Remove(set[i])
			set[i] = set[len(set)-1]
			set = set[:len(set)-1]
		} else {
			pt := randomPoint(p.Space, src)
			sk.Add(pt)
			set = append(set, pt)
		}
		if op%100 != 99 {
			continue
		}
		ref, err := BuildSketch(p, set)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sk.Encode(), ref.Encode()) {
			t.Fatalf("op %d (size %d): incremental sketch differs from from-scratch build", op, len(set))
		}
	}
	// Top up to exactly N and compare against the protocol's own
	// message builder.
	for len(set) < p.N {
		pt := randomPoint(p.Space, src)
		sk.Add(pt)
		set = append(set, pt)
	}
	msg, err := BuildMessage(p, set)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sk.Encode(), msg) {
		t.Fatal("incremental sketch differs from BuildMessage wire bytes")
	}

	// The full sketch must reconcile: Bob applies it the same way
	// ApplyMessage does, with identical (seeded) rounding randomness.
	direct, err := ApplyMessage(p, set, msg)
	if err != nil {
		t.Fatal(err)
	}
	viaSketch, err := sk.Apply(set)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Failed != viaSketch.Failed || direct.Level != viaSketch.Level {
		t.Fatalf("Apply diverges from ApplyMessage: %+v vs %+v", direct.Failed, viaSketch.Failed)
	}
}

// pinShapes are the benchmark's three EMD shapes at fixed seeds: the
// churn-serve set (Hamming d=64, capacity 256, k=4, 128 points), a
// mesh-churn set (Hamming d=32, 64 points) and the emd-oneshot instance
// (ℓ2 d=16, n=512, k=8, informed bounds).
var pinShapes = []struct {
	name string
	p    Params
	n    int
	want uint64
}{
	{"churn-serve", DefaultParams(metric.HammingCube(64), 256, 4, 11), 128, 0x2efdca94d5e00eb5},
	{"mesh-churn", DefaultParams(metric.HammingCube(32), 256, 4, 12), 64, 0xd08f6893ba6c7344},
	{"emd-oneshot", Params{Space: metric.Grid(4095, 16, metric.L2), N: 512, K: 8, D1: 512, D2: 16384, Seed: 13}, 512, 0x5a7797b68a966bef},
}

// TestSketchWireBytesPinned pins the wire bytes of a from-scratch build
// at each benchmark shape to fingerprints captured once. Every other
// sketch golden compares two code paths of the same commit and would not
// notice a change that moves keys identically on both sides; this one
// fails on any change to the keys, cells or codec.
func TestSketchWireBytesPinned(t *testing.T) {
	for _, c := range pinShapes {
		src := rng.New(c.p.Seed ^ 0x5eed)
		pts := make(metric.PointSet, c.n)
		for i := range pts {
			pts[i] = randomPoint(c.p.Space, src)
		}
		sk, err := BuildSketch(c.p, pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := FingerprintMessage(sk.Encode()); got != c.want {
			t.Errorf("%s: wire fingerprint %#x, pinned %#x", c.name, got, c.want)
		}
	}
}

// bytesPerRun reports the heap bytes one call of f allocates, averaged
// over runs calls. Two collections first empty the riblt pool, so pooled
// table memory cannot favour one measurement over another.
func bytesPerRun(runs int, f func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestBuildMessageBytes bounds what one BuildMessage allocates at the
// emd-oneshot shape, on one core and with an empty riblt pool (the
// worst case): its t = 6 tables (≈ 300 KB), the message once at its
// exact size (54 KB) and the key scratch, 392 KB measured. Growing the
// message by appends instead cost 546 KB.
func TestBuildMessageBytes(t *testing.T) {
	atProcs(t, 1, func(t *testing.T) {
		p := pinShapes[2].p
		src := rng.New(5)
		pts := make(metric.PointSet, p.N)
		for i := range pts {
			pts[i] = randomPoint(p.Space, src)
		}
		build := func() {
			if _, err := BuildMessage(p, pts); err != nil {
				t.Fatal(err)
			}
		}
		build() // derive and cache the plan
		const budget = 448 << 10
		if got := bytesPerRun(1, build); got > budget {
			t.Errorf("BuildMessage allocates %d bytes, budget %d", got, budget)
		}
	})
}

// TestSketchMutationAllocs: at the churn-serve shape a point mutation
// allocates nothing, and encoding the message or a delta (what every
// live snapshot and delta serve does) allocates its bytes once, not a
// buffer grown by repeated appends.
func TestSketchMutationAllocs(t *testing.T) {
	p := pinShapes[0].p
	src := rng.New(3)
	pts := make(metric.PointSet, 128)
	for i := range pts {
		pts[i] = randomPoint(p.Space, src)
	}
	sk, err := BuildSketch(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	extra := randomPoint(p.Space, src)
	if n := testing.AllocsPerRun(50, func() {
		sk.Add(extra)
		sk.Remove(extra)
	}); n != 0 {
		t.Errorf("Add+Remove allocates %v times per call", n)
	}

	const runs = 20
	refs := SortCellRefs(append([]CellRef(nil), sk.Add(extra)...))
	for name, enc := range map[string]func() []byte{
		"Encode":      sk.Encode,
		"EncodeCells": func() []byte { return sk.EncodeCells(refs) },
	} {
		// The one allocation is rounded up to its size class (a
		// whole page for a large one); appending would reallocate a
		// buffer 1.25 times larger than the last, ≈ 5 times the size
		// in all.
		size := uint64(len(enc()))
		got := bytesPerRun(runs, func() { enc() })
		t.Logf("%s: %d bytes allocated for a %d-byte encoding", name, got, size)
		if got > size*5/4+512 {
			t.Errorf("%s allocates %d bytes for a %d-byte encoding", name, got, size)
		}
	}
}

// TestSketchDeltaPatch: encoding only churned cells and patching them
// into a stale clone reproduces the mutated sketch exactly.
func TestSketchDeltaPatch(t *testing.T) {
	p := sketchTestParams()
	src := rng.New(5)
	var set metric.PointSet
	for i := 0; i < p.N; i++ {
		set = append(set, randomPoint(p.Space, src))
	}
	sk, err := BuildSketch(p, set)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := DecodeSketch(p, sk.Encode())
	if err != nil {
		t.Fatal(err)
	}

	var refs []CellRef
	for i := 0; i < 5; i++ {
		refs = append(refs, sk.Remove(set[i])...)
		pt := randomPoint(p.Space, src)
		refs = append(refs, sk.Add(pt)...)
	}
	patch := sk.EncodeCells(SortCellRefs(refs))
	if len(patch) >= len(sk.Encode()) {
		t.Logf("delta (%d bytes) not smaller than full (%d bytes) at this churn", len(patch), len(sk.Encode()))
	}
	if err := stale.ApplyCells(patch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stale.Encode(), sk.Encode()) {
		t.Fatal("patched sketch differs from mutated sketch")
	}
	if stale.Fingerprint() != sk.Fingerprint() {
		t.Fatal("fingerprint mismatch after patch")
	}

	// A decoded wire sketch patches identically.
	wire, err := DecodeSketch(p, stale.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if wire.Fingerprint() != sk.Fingerprint() {
		t.Fatal("decoded sketch fingerprint differs")
	}
}

// TestSketchApplyMatchesReconcile: serving a sketch to Bob produces the
// same reconciliation a one-shot ApplyMessage run does.
func TestSketchApplyMatchesReconcile(t *testing.T) {
	p := sketchTestParams()
	src := rng.New(11)
	var sa, sb metric.PointSet
	for i := 0; i < p.N; i++ {
		pt := randomPoint(p.Space, src)
		sa = append(sa, pt)
		sb = append(sb, pt.Clone())
	}
	// Perturb a couple of Bob's points.
	sb[0][0] ^= 1
	sb[1][1] ^= 1

	sk, err := BuildSketch(p, sa)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sk.Apply(sb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ApplyMessage(p, sb, sk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != want.Failed || res.Level != want.Level ||
		len(res.SPrime) != len(want.SPrime) {
		t.Fatalf("sketch apply (failed=%v level=%d |S'|=%d) != message apply (failed=%v level=%d |S'|=%d)",
			res.Failed, res.Level, len(res.SPrime), want.Failed, want.Level, len(want.SPrime))
	}
}

package lsh

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// BenchmarkVectorHashPrefixInto measures the dense reference evaluation
// of one MLSH key vector: every one of s drawn functions through its
// interface call. The protocols key through a Kernel instead
// (BenchmarkKernelHashInto); the benchmark's lsh replays still time this
// path.
func BenchmarkVectorHashPrefixInto(b *testing.B) {
	space := metric.HammingCube(128)
	m := HammingMLSH(space, float64(space.Dim))
	src := rng.New(3)
	const s = 96 // typical draw count for the demo parameterization
	v := DrawVector(m.Family, src, s)
	pt := make(metric.Point, space.Dim)
	for i := range pt {
		pt[i] = int32(src.Uint64() % 2)
	}
	scratch := make([]uint64, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.HashPrefixInto(scratch, pt, s)
	}
}

// BenchmarkKernelHashInto times one point's keying evaluation at the
// shapes of the benchmark's two one-shot workloads, through the dense
// Vector and through the Kernel drawn from the same coins: p-stable ℓ2
// at d = 16 with s = 97 draws (emd-oneshot), and coordinate sampling at
// d = 1024 with 180 draws (gap-oneshot: h = 60 entries of m = 3).
func BenchmarkKernelHashInto(b *testing.B) {
	l2, hamming := metric.Grid(4095, 16, metric.L2), metric.HammingCube(1024)
	shapes := []struct {
		name  string
		space metric.Space
		fam   Family
		n     int
	}{
		{"pstable-d16-s97", l2, NewPStableL2(l2, 78440), 97},
		{"coord-d1024-n180", hamming, NewCoordSampling(hamming, 1024), 180},
	}
	for _, sh := range shapes {
		pt := workloadPoint(sh.space, rng.New(5))
		dst := make([]uint64, sh.n)
		b.Run(sh.name+"/vector", func(b *testing.B) {
			v := DrawVector(sh.fam, rng.New(3), sh.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.HashPrefixInto(dst, pt, sh.n)
			}
		})
		b.Run(sh.name+"/kernel", func(b *testing.B) {
			k := DrawKernel(sh.fam, rng.New(3), sh.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.HashInto(dst, pt)
			}
		})
	}
}

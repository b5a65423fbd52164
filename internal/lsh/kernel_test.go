package lsh

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

var kernelDims = []int{1, 3, 16, 64, 1024}

// kernelPoints returns points of space with coordinates 0 and Δ among
// them: the all-0 and all-Δ points, one alternating the two, and random
// points.
func kernelPoints(space metric.Space, src *rng.Source, random int) []metric.Point {
	zero, top, alt := make(metric.Point, space.Dim), make(metric.Point, space.Dim), make(metric.Point, space.Dim)
	for i := range top {
		top[i] = space.Delta
		if i%2 == 1 {
			alt[i] = space.Delta
		}
	}
	pts := []metric.Point{zero, top, alt}
	for i := 0; i < random; i++ {
		pts = append(pts, workloadPoint(space, src))
	}
	return pts
}

// TestKernelDotsMatchReference: the kernel's p-stable sums are the
// reference's bit for bit, before the floor. A reordered or fused sum
// moves a cell only about once in 10¹⁰ evaluations, so equal cells
// alone would not show it. 13 draws cover both the four-row groups and
// the remainder; d = 1024 covers sums carried across conversion chunks.
func TestKernelDotsMatchReference(t *testing.T) {
	const n = 13
	for _, d := range kernelDims {
		space := metric.Grid(4095, d, metric.L2)
		fam := NewPStableL2(space, 300)
		vec := DrawVector(fam, rng.New(uint64(d)), n)
		k := DrawKernel(fam, rng.New(uint64(d)), n)
		got := make([]uint64, n)
		for pi, p := range kernelPoints(space, rng.New(7), 20) {
			k.dotsInto(got, p, 0)
			for j, f := range vec.funcs {
				want := f.(pStableL2Func).dot(p)
				if got[j] != math.Float64bits(want) {
					t.Fatalf("d=%d point %d draw %d: kernel sum %v, reference %v",
						d, pi, j, math.Float64frombits(got[j]), want)
				}
			}
		}
	}
}

// TestKernelMatchesVector: for every family, at every dimension, the
// kernel's values are the dense vector's — the evaluated draws in draw
// order, and each draw it reports constant returns that constant on
// every point — and a range of them is the same slice of the whole.
func TestKernelMatchesVector(t *testing.T) {
	for _, d := range kernelDims {
		hamming := metric.HammingCube(d)
		grid := metric.Grid(4095, d, metric.L1)
		families := []struct {
			space  metric.Space
			fam    Family
			padded bool
		}{
			{hamming, NewCoordSampling(hamming, float64(4*d)), true},
			{hamming, NewCoordSampling(hamming, float64(d)), false},
			{grid, NewGridL1(grid, 50), false},
			{grid, NewOneSidedGrid(grid, 1, 10*float64(d), 1), false},
			{metric.Grid(4095, d, metric.L2), NewPStableL2(metric.Grid(4095, d, metric.L2), 300), false},
		}
		for _, c := range families {
			name := c.fam.String()
			const n = 61
			vec := DrawVector(c.fam, rng.New(11), n)
			k := DrawKernel(c.fam, rng.New(11), n)
			consts := 0
			for j := 0; j < n; j++ {
				if _, ok := k.Constant(j); ok {
					consts++
				}
			}
			if k.Active() != n-consts {
				t.Fatalf("%s: %d active and %d constant draws of %d", name, k.Active(), consts, n)
			}
			if (consts > 0) != c.padded {
				t.Fatalf("%s: %d of %d draws constant", name, consts, n)
			}
			dst := make([]uint64, n)
			for pi, p := range kernelPoints(c.space, rng.New(13), 20) {
				got := k.HashInto(dst, p)
				want := vec.Hash(p)
				a := 0
				for j, w := range want {
					if v, ok := k.Constant(j); ok {
						if w != v {
							t.Fatalf("%s point %d: constant draw %d returns %d, reported %d", name, pi, j, w, v)
						}
						continue
					}
					if got[a] != w {
						t.Fatalf("%s point %d draw %d: kernel %#x, vector %#x", name, pi, j, got[a], w)
					}
					a++
				}
				if a != len(got) {
					t.Fatalf("%s point %d: kernel wrote %d values, %d draws active", name, pi, len(got), a)
				}
				all := append([]uint64(nil), got...)
				for _, r := range [][2]int{{0, 0}, {0, 1}, {1, 6}, {3, 12}, {len(all) / 2, len(all)}} {
					lo, hi := min(r[0], len(all)), min(r[1], len(all))
					part := k.HashRangeInto(make([]uint64, hi-lo), p, lo, hi)
					for j, v := range part {
						if v != all[lo+j] {
							t.Fatalf("%s point %d: range [%d,%d) value %d is %#x, HashInto %#x", name, pi, lo, hi, j, v, all[lo+j])
						}
					}
				}
			}
		}
	}
}

// TestKernelCoins: DrawKernel consumes exactly DrawVector's coins, so
// whatever a caller draws after it is the same as after the vector.
func TestKernelCoins(t *testing.T) {
	hamming := metric.HammingCube(16)
	grid := metric.Grid(255, 16, metric.L1)
	for _, fam := range []Family{
		NewCoordSampling(hamming, 64),
		NewCoordSampling(hamming, 16),
		NewGridL1(grid, 20),
		NewOneSidedGrid(grid, 1, 200, 2),
		NewPStableL2(grid, 20),
	} {
		sv, sk := rng.New(17), rng.New(17)
		DrawVector(fam, sv, 97)
		DrawKernel(fam, sk, 97)
		if a, b := sv.Uint64(), sk.Uint64(); a != b {
			t.Errorf("%s: next coin %#x after DrawVector, %#x after DrawKernel", fam, a, b)
		}
	}
}

// TestFloorInt: the truncating floor equals math.Floor's on the values
// where truncation and floor part ways, and at the ends of the range.
func TestFloorInt(t *testing.T) {
	qs := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, -1.5, 2.999, -2.999,
		1 << 52, -(1 << 52), 1<<63 - 1024, -(1 << 63), -1e300, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	src := rng.New(19)
	for i := 0; i < 1000; i++ {
		qs = append(qs, (src.Float64()-0.5)*1e6)
	}
	for _, q := range qs {
		if got, want := floorInt(q), int64(math.Floor(q)); got != want {
			t.Errorf("floorInt(%v) = %d, want %d", q, got, want)
		}
	}
}

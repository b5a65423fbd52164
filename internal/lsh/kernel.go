package lsh

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/hashx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Kernel is a vector of drawn functions compiled for evaluation: the
// protocols' keying path. DrawKernel draws exactly the functions
// DrawVector draws from the same coins, but stores each family flat — the
// p-stable directions as one matrix, coordinate samples as an index
// table, grid shifts as one matrix with a mixer per draw — and evaluates
// them without an interface call per function.
//
// Draws that ignore the point (coordinate sampling's padding) are not
// evaluated: HashInto writes the values of the other draws, in draw
// order, and Constant reports the rest in the form
// hashx.KeyHasher.Compile folds.
//
// A Kernel is immutable after DrawKernel, so concurrent evaluation from
// many goroutines is safe.
type Kernel struct {
	kind kernelKind
	n    int     // functions drawn
	dim  int     // row width of mat
	w    float64 // p-stable window or grid width
	// pos holds the draw position of each evaluated draw, ascending; nil
	// when every draw is evaluated.
	pos []int32
	idx []int32       // coordinate sampling: the coordinate each draw reveals
	mat []float64     // p-stable: rows [a, dir_0 … dir_d−1]; grids: rows of shifts
	mix []hashx.Mixer // grids: each draw's mixer
}

type kernelKind uint8

const (
	kernelCoord kernelKind = iota
	kernelPStable
	kernelGrid
)

// DrawKernel draws n functions from family using src, consuming the same
// coins in the same order as DrawVector. It panics for a family defined
// outside this package.
func DrawKernel(family Family, src *rng.Source, n int) *Kernel {
	switch f := family.(type) {
	case coordSample:
		// About n·d/w draws read the point; pos records which.
		want := min(n, int(float64(n)*float64(f.dim)/f.w)+8)
		k := &Kernel{kind: kernelCoord, n: n, idx: make([]int32, 0, want), pos: make([]int32, 0, want)}
		for j := 0; j < n; j++ {
			if i := f.drawIndex(src); i >= 0 {
				k.idx = append(k.idx, int32(i))
				k.pos = append(k.pos, int32(j))
			}
		}
		if len(k.idx) == n {
			k.pos = nil
		}
		return k
	case pStableL2:
		k := &Kernel{kind: kernelPStable, n: n, dim: f.dim + 1, w: f.w}
		k.mat = make([]float64, n*k.dim)
		for j := 0; j < n; j++ {
			row := k.mat[j*k.dim : (j+1)*k.dim]
			row[0] = f.drawInto(row[1:], src)
		}
		return k
	case gridL1:
		return drawGridKernel(f.dim, f.w, src, n)
	case OneSidedGrid:
		return drawGridKernel(f.dim, f.width, src, n)
	default:
		panic(fmt.Sprintf("lsh: no kernel for family %s", family))
	}
}

func drawGridKernel(dim int, w float64, src *rng.Source, n int) *Kernel {
	k := &Kernel{kind: kernelGrid, n: n, dim: dim, w: w}
	k.mat = make([]float64, n*dim)
	k.mix = make([]hashx.Mixer, n)
	for j := range k.mix {
		k.mix[j] = drawShifts(k.mat[j*dim:(j+1)*dim], w, src)
	}
	return k
}

// Active returns the number of draws that read the point: the number of
// values HashInto writes.
func (k *Kernel) Active() int {
	if k.kind == kernelCoord {
		return len(k.idx)
	}
	return k.n
}

// Constant reports whether draw j (in draw order) ignores the point and,
// if so, the value it returns for every point.
func (k *Kernel) Constant(j int) (uint64, bool) {
	if k.pos == nil {
		return 0, false
	}
	_, found := slices.BinarySearch(k.pos, int32(j))
	return 0, !found
}

// HashInto evaluates every draw that reads p, in draw order, into dst
// (len(dst) >= Active()) and returns dst[:Active()]. Each value equals
// the one the same draw of DrawVector gives. It does not allocate.
func (k *Kernel) HashInto(dst []uint64, p metric.Point) []uint64 {
	return k.HashRangeInto(dst, p, 0, k.Active())
}

// HashRangeInto is HashInto for the evaluated draws lo … hi−1 alone
// (0 <= lo <= hi <= Active()): it writes their hi−lo values into dst and
// returns dst[:hi−lo].
func (k *Kernel) HashRangeInto(dst []uint64, p metric.Point, lo, hi int) []uint64 {
	dst = dst[:hi-lo]
	switch k.kind {
	case kernelCoord:
		for j, i := range k.idx[lo:hi] {
			dst[j] = uint64(uint32(p[i])) + 1
		}
	case kernelPStable:
		k.dotsInto(dst, p, lo)
		for j, b := range dst {
			dst[j] = zigzag(floorInt(math.Float64frombits(b) / k.w))
		}
	case kernelGrid:
		for j, mx := range k.mix[lo:hi] {
			r := lo + j
			dst[j] = gridCell(k.mat[r*k.dim:(r+1)*k.dim], k.w, mx, p)
		}
	}
	return dst
}

// floorInt is int64(math.Floor(q)), by truncation and a fix-up, which
// is cheaper than math.Floor where it is not an instruction.
func floorInt(q float64) int64 {
	c := int64(q)
	if float64(c) > q && c != math.MinInt64 {
		c--
	}
	return c
}

// dotsInto writes the p-stable sums a + Σ dir_i·x_i of rows lo …
// lo+len(dst)−1 into dst, as float64 bits. It converts the point to
// float64 once, 64 coordinates at a time, and sums four rows at a time,
// carrying the partial sums in dst. Every row still sums in the
// reference order (a, then i = 0 … d−1) with unfused products, so the
// sums are bit-identical to pStableL2Func.dot's.
func (k *Kernel) dotsInto(dst []uint64, p metric.Point, lo int) {
	rows := k.mat[lo*k.dim:]
	for j := range dst {
		dst[j] = math.Float64bits(rows[j*k.dim])
	}
	var buf [64]float64
	for c := 0; c < len(p); c += len(buf) {
		xs := buf[:min(len(p)-c, len(buf))]
		for i := range xs {
			xs[i] = float64(p[c+i])
		}
		ce := c + len(xs)
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			r := lo + j
			r0, r1, r2, r3 := k.dir(r)[c:ce], k.dir(r + 1)[c:ce], k.dir(r + 2)[c:ce], k.dir(r + 3)[c:ce]
			r0, r1, r2, r3 = r0[:len(xs)], r1[:len(xs)], r2[:len(xs)], r3[:len(xs)]
			d0, d1 := math.Float64frombits(dst[j]), math.Float64frombits(dst[j+1])
			d2, d3 := math.Float64frombits(dst[j+2]), math.Float64frombits(dst[j+3])
			for i, x := range xs {
				d0 += float64(r0[i] * x)
				d1 += float64(r1[i] * x)
				d2 += float64(r2[i] * x)
				d3 += float64(r3[i] * x)
			}
			dst[j], dst[j+1] = math.Float64bits(d0), math.Float64bits(d1)
			dst[j+2], dst[j+3] = math.Float64bits(d2), math.Float64bits(d3)
		}
		for ; j < len(dst); j++ {
			r, d := k.dir(lo + j)[c:ce], math.Float64frombits(dst[j])
			r = r[:len(xs)]
			for i, x := range xs {
				d += float64(r[i] * x)
			}
			dst[j] = math.Float64bits(d)
		}
	}
}

// dir is p-stable row j's direction.
func (k *Kernel) dir(j int) []float64 {
	end := (j + 1) * k.dim
	return k.mat[j*k.dim+1 : end : end]
}

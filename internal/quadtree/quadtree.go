// Package quadtree implements the baseline the paper improves on: the
// randomly-offset quadtree protocol of Chen, Konrad, Yi, Yu & Zhang,
// "Robust set reconciliation" (SIGMOD 2014), the paper's reference [7].
//
// Where Algorithm 1 keys points by locality-sensitive hashes and stores
// the points themselves as IBLT values, [7] "simply rounds points to the
// center of their quadtree cell, and inserts those into an IBLT" (§1.1).
// We realize that with a hierarchy of randomly shifted grids: at level ℓ
// the cell width halves, each point is replaced by its cell's center
// point, and the (cellID, occurrence) → center pairs go into a table per
// level. Bob decodes the finest level whose difference fits and replaces
// matched points by Alice's recovered cell centers.
//
// The recovered values carry quantization error up to the cell diameter,
// which grows linearly with the dimension d under ℓ1 (and with √d under
// ℓ2) — the O(d) approximation factor that motivates the paper's O(log n)
// alternative. Experiment E7 measures exactly this contrast.
package quadtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashx"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/riblt"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Params configures the baseline protocol. Its table geometry is
// Algorithm 1's default, keeping the comparison apples-to-apples: q = 3
// cell hashes, 4q²k cells per level, 40-bit keys, and at most 4k
// recovered pairs per decoded level.
type Params struct {
	Space metric.Space
	N     int
	K     int
	Seed  uint64
}

// q and keyBits are the per-level tables' cell hashes and key width.
const (
	q       = 3
	keyBits = 40
)

// Validate reports an error for unusable parameters.
func (p *Params) Validate() error {
	if err := p.Space.Validate(); err != nil {
		return err
	}
	if p.N < 1 || p.K < 1 || p.K > p.N {
		return fmt.Errorf("quadtree: need 1 <= k <= n, got n=%d k=%d", p.N, p.K)
	}
	return nil
}

// Result mirrors emd.Result for the baseline.
type Result struct {
	SPrime metric.PointSet
	Failed bool
	// Level is the finest decoded level (1-based; higher = finer cells).
	Level  int
	XA, XB metric.PointSet
	Stats  transport.Stats
	Levels int
}

// levelWidths returns the cell width per level: level 0 covers the whole
// space in one cell, and widths halve down to 1.
func levelWidths(space metric.Space) []float64 {
	max := float64(space.Delta + 1)
	var widths []float64
	for w := max; w >= 1; w /= 2 {
		widths = append(widths, w)
	}
	return widths
}

// newCenters allocates n reusable center points of the given dimension
// over one flat backing array.
func newCenters(n, dim int) metric.PointSet {
	flat := make([]int32, n*dim)
	out := make(metric.PointSet, n)
	for i := range out {
		out[i] = metric.Point(flat[i*dim : (i+1)*dim : (i+1)*dim])
	}
	return out
}

// grid captures one level's randomly offset grid.
type grid struct {
	w       float64
	offsets []float64
	mix     hashx.Mixer
	space   metric.Space
}

func newGrid(space metric.Space, w float64, src *rng.Source) grid {
	off := make([]float64, space.Dim)
	for i := range off {
		off[i] = src.Float64() * w
	}
	return grid{w: w, offsets: off, mix: hashx.NewMixer(src), space: space}
}

// cellAndCenter returns the cell id hash and the center point of p's
// cell, clamped into the space.
func (g grid) cellAndCenter(p metric.Point) (uint64, metric.Point) {
	return g.cellAndCenterInto(p, make(metric.Point, len(p)))
}

// cellAndCenterInto is cellAndCenter writing the center into a
// caller-provided point (length len(p)) — the builders' hot loop, which
// reuses one center buffer per slot instead of allocating per level.
// The table insert paths only read the center (cell fields are sums),
// so reuse is safe.
func (g grid) cellAndCenterInto(p, center metric.Point) (uint64, metric.Point) {
	h := g.mix.Hash(uint64(len(p)))
	for i, x := range p {
		cell := math.Floor((float64(x) + g.offsets[i]) / g.w)
		h = g.mix.Hash(h ^ uint64(int64(cell)) ^ uint64(i)<<48)
		c := cell*g.w + g.w/2 - g.offsets[i]
		v := int32(math.Round(c))
		// Clamp in place (center is owned scratch; Space.Clamp clones).
		if v < 0 {
			v = 0
		} else if v > g.space.Delta {
			v = g.space.Delta
		}
		center[i] = v
	}
	return h, center
}

// occScratch is the reusable working state of occurrenceKeysInto; one
// instance serves a whole multi-level build instead of per-level maps.
type occScratch struct {
	order []int
	occ   map[uint64]uint64
}

// occurrenceKeysInto assigns, per party, stable occurrence indices to
// points sharing a cell so duplicates become distinct table keys that
// still cancel across parties. It writes into caller-provided output and
// scratch — the per-level hot loop of both parties, which would
// otherwise allocate an order slice and an occurrence map per level.
func occurrenceKeysInto(out []uint64, cells []uint64, mix hashx.Mixer, sc *occScratch) []uint64 {
	if cap(sc.order) < len(cells) {
		sc.order = make([]int, len(cells))
	}
	order := sc.order[:len(cells)]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cells[order[a]] < cells[order[b]] })
	if sc.occ == nil {
		sc.occ = make(map[uint64]uint64, len(cells))
	} else {
		clear(sc.occ)
	}
	for _, i := range order {
		c := cells[i]
		n := sc.occ[c] + 1
		sc.occ[c] = n
		out[i] = mix.Hash(c^n*0x9e3779b97f4a7c15) & (1<<keyBits - 1)
	}
	return out[:len(cells)]
}

// plan is the seed-derived state shared by both parties: the offset
// grids, the occurrence-key mixer and the per-level table configs.
type plan struct {
	params Params
	widths []float64
	grids  []grid
	occMix hashx.Mixer
	cfgs   []riblt.Config
}

func newPlan(p Params) (*plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	widths := levelWidths(p.Space)
	src := rng.New(p.Seed)
	grids := make([]grid, len(widths))
	for i, w := range widths {
		grids[i] = newGrid(p.Space, w, src)
	}
	occMix := hashx.NewMixer(src)
	cfgs := make([]riblt.Config, len(widths))
	for i := range cfgs {
		cfgs[i] = riblt.Config{
			Cells: 4 * q * q * p.K, Q: q, Dim: p.Space.Dim, Delta: p.Space.Delta,
			KeyBits: keyBits, MaxItems: 2*p.N + 2, Seed: src.Uint64(),
		}
	}
	return &plan{params: p, widths: widths, grids: grids, occMix: occMix, cfgs: cfgs}, nil
}

// aliceEncode builds Alice's message: every level's table over sa. The
// per-level working set — cell ids, centers, occurrence keys, and the
// table itself — is reused (or pooled) across levels, so the build's
// allocations are one batch of flat scratch rather than per level per
// cell.
func (pl *plan) aliceEncode(sa metric.PointSet) *transport.Encoder {
	p := pl.params
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(len(pl.widths)))
	cells := make([]uint64, len(sa))
	keys := make([]uint64, len(sa))
	centers := newCenters(len(sa), p.Space.Dim)
	var sc occScratch
	for lvl := range pl.widths {
		tbl := riblt.New(pl.cfgs[lvl])
		for i, a := range sa {
			cells[i], _ = pl.grids[lvl].cellAndCenterInto(a, centers[i])
		}
		for i, key := range occurrenceKeysInto(keys, cells, pl.occMix, &sc) {
			tbl.Insert(key, centers[i])
		}
		tbl.Encode(e)
		tbl.Release()
	}
	return e
}

// Reconcile runs the baseline protocol in-process.
func Reconcile(p Params, sa, sb metric.PointSet) (Result, error) {
	pl, err := newPlan(p)
	if err != nil {
		return Result{}, err
	}
	p = pl.params
	if len(sa) != p.N || len(sb) != p.N {
		return Result{}, fmt.Errorf("quadtree: |SA|=%d |SB|=%d, N=%d", len(sa), len(sb), p.N)
	}
	widths, grids, cfgs := pl.widths, pl.grids, pl.cfgs

	// Alice: build and send all levels.
	var ch transport.Channel
	ch.Send(transport.AliceToBob, pl.aliceEncode(sa))

	// Bob: delete his rounded points, decode finest feasible level.
	d, err := ch.Recv(transport.AliceToBob)
	if err != nil {
		return Result{}, err
	}
	nLvl, err := d.ReadUvarint()
	if err != nil {
		return Result{}, err
	}
	if int(nLvl) != len(widths) {
		return Result{}, fmt.Errorf("quadtree: level count mismatch")
	}
	tables := make([]*riblt.Table, len(widths))
	for lvl := range tables {
		if tables[lvl], err = riblt.DecodeFrom(d, cfgs[lvl]); err != nil {
			return Result{}, err
		}
	}
	defer func() {
		for _, t := range tables {
			t.Release()
		}
	}()
	cells := make([]uint64, len(sb))
	keys := make([]uint64, len(sb))
	centers := newCenters(len(sb), p.Space.Dim)
	var sc occScratch
	for lvl := range widths {
		for i, b := range sb {
			cells[i], _ = grids[lvl].cellAndCenterInto(b, centers[i])
		}
		for i, key := range occurrenceKeysInto(keys, cells, pl.occMix, &sc) {
			tables[lvl].Delete(key, centers[i])
		}
	}
	round := rng.New(p.Seed ^ 0xbead)
	for lvl := len(widths) - 1; lvl >= 0; lvl-- {
		res, err := tables[lvl].Peel(round)
		if err != nil {
			continue
		}
		if len(res.Inserted)+len(res.Deleted) > 4*p.K {
			continue
		}
		xa := make(metric.PointSet, len(res.Inserted))
		for j, pr := range res.Inserted {
			xa[j] = pr.Value
		}
		xb := make(metric.PointSet, len(res.Deleted))
		for j, pr := range res.Deleted {
			xb[j] = pr.Value
		}
		sPrime := assemble(p.Space, sb, xa, xb)
		return Result{
			SPrime: sPrime, Level: lvl + 1, XA: xa, XB: xb,
			Stats: ch.Stats(), Levels: len(widths),
		}, nil
	}
	return Result{Failed: true, Stats: ch.Stats(), Levels: len(widths)}, nil
}

// assemble mirrors the Algorithm 1 output step: S′B = (SB \ YB) ∪ XA with
// YB the min-cost match of XB into SB.
func assemble(space metric.Space, sb, xa, xb metric.PointSet) metric.PointSet {
	if len(xb) == 0 {
		return append(sb.Clone(), xa.Clone()...)
	}
	rows, _ := matching.Assign(matching.CostMatrix(space, xb, sb))
	drop := make(map[int]bool, len(rows))
	for _, j := range rows {
		if j >= 0 {
			drop[j] = true
		}
	}
	out := make(metric.PointSet, 0, len(sb)-len(drop)+len(xa))
	for j, b := range sb {
		if !drop[j] {
			out = append(out, b.Clone())
		}
	}
	out = append(out, xa.Clone()...)
	return out
}

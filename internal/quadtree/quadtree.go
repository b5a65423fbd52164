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
	return &plan{params: p, grids: grids, occMix: occMix, cfgs: cfgs}, nil
}

// forEachPair calls fn with every (level, key, center) pair of pts: at
// each level, each point's cell center keyed by its cell and its
// occurrence among pts' points in that cell. Alice inserts these pairs
// and Bob deletes his. The working set — cell ids, centers, occurrence
// keys — is one batch of flat scratch reused across levels, so center is
// valid only during the call (the tables only read it).
func (pl *plan) forEachPair(pts metric.PointSet, fn func(lvl int, key uint64, center metric.Point)) {
	cells := make([]uint64, len(pts))
	keys := make([]uint64, len(pts))
	centers := newCenters(len(pts), pl.params.Space.Dim)
	var sc occScratch
	for lvl, g := range pl.grids {
		for i, a := range pts {
			cells[i], _ = g.cellAndCenterInto(a, centers[i])
		}
		for i, key := range occurrenceKeysInto(keys, cells, pl.occMix, &sc) {
			fn(lvl, key, centers[i])
		}
	}
}

// buildMessage builds Alice's message: every level's table over sa, in
// the level-table layout Algorithm 1 sends (riblt.EncodeLevels).
func (pl *plan) buildMessage(sa metric.PointSet) []byte {
	tables := make([]*riblt.Table, len(pl.cfgs))
	for i, cfg := range pl.cfgs {
		tables[i] = riblt.New(cfg)
	}
	defer riblt.ReleaseAll(tables)
	pl.forEachPair(sa, func(lvl int, key uint64, center metric.Point) { tables[lvl].Insert(key, center) })
	return riblt.EncodeLevels(tables)
}

// Reconcile runs the baseline protocol in-process: Alice builds and
// encodes all levels; Bob decodes them, deletes his rounded points,
// decodes the finest feasible level and assembles S′B as Algorithm 1
// does.
func Reconcile(p Params, sa, sb metric.PointSet) (Result, error) {
	pl, err := newPlan(p)
	if err != nil {
		return Result{}, err
	}
	p = pl.params
	if len(sa) != p.N || len(sb) != p.N {
		return Result{}, fmt.Errorf("quadtree: |SA|=%d |SB|=%d, N=%d", len(sa), len(sb), p.N)
	}
	msg := pl.buildMessage(sa)
	tables, err := riblt.DecodeLevels(transport.NewDecoder(msg), pl.cfgs)
	if err != nil {
		return Result{}, err
	}
	defer riblt.ReleaseAll(tables)
	pl.forEachPair(sb, func(lvl int, key uint64, center metric.Point) { tables[lvl].Delete(key, center) })
	res := Result{Stats: transport.MessageStats(int64(len(msg)) * 8), Levels: len(tables)}
	level, xa, xb := riblt.PeelFinest(tables, rng.New(p.Seed^0xbead), 4*p.K)
	if level < 0 {
		res.Failed = true
		return res, nil
	}
	res.SPrime = matching.Assemble(p.Space, sb, xa, xb)
	res.Level, res.XA, res.XB = level+1, xa, xb
	return res, nil
}

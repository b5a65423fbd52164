// Package emd implements the paper's Earth Mover's Distance protocol
// (Algorithm 1, §3) and the interval-scaling wrapper of Corollary 3.6.
//
// The protocol: Alice and Bob share (via public coins) a vector of s
// multi-scale LSH functions g1…gs and a pairwise-independent compressor
// h. For t = log2(D2/D1)+1 resolution levels, each party forms for every
// point a level-i key — h applied to a prefix of the gj values whose
// length doubles with i — and Alice inserts (key, point) pairs into one
// RIBLT per level (m = 4q²k cells each). She sends the tables in a
// single message; Bob deletes his pairs and peels the finest level that
// decodes to at most 4k pairs. The decoded Alice-side values XA replace
// the subset YB of Bob's points matched (min-cost, Hungarian) to the
// decoded Bob-side values XB, giving S′B with
// EMD(SA, S′B) ≤ O(α⁻¹·log n)·EMD_k(SA, SB) with constant probability
// (Theorem 3.4).
package emd

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/hashx"
	"repro/internal/lsh"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/riblt"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Params configures one run of Algorithm 1. Zero values are filled by
// ApplyDefaults; construct with DefaultParams unless a test is
// deliberately off-spec.
type Params struct {
	Space metric.Space
	// N is |SA| = |SB| (the model requires equal sizes).
	N int
	// K is the communication parameter: the protocol targets
	// EMD(SA,S′B) ≲ O(log n)·EMD_K(SA,SB) and spends Õ(K) communication.
	K int
	// D1 ≤ EMD_k(SA,SB) ≤ D2 are the caller's bounds. Without prior
	// knowledge the paper uses D1 = 1 and D2 = n·diameter (§3).
	D1, D2 float64
	// Q is the number of RIBLT hash functions (Algorithm 1 needs q ≥ 3).
	Q int
	// CellsPerLevel overrides the RIBLT size; 0 means the paper's 4q²k.
	CellsPerLevel int
	// KeyBits is the width of the pairwise-independent keys
	// (Θ(log n) in the paper; default 40 covers every n we run).
	KeyBits uint
	// Seed is the shared public-coin seed.
	Seed uint64
}

// maxFuncs caps s, the number of MLSH draws, as a runtime guard.
const maxFuncs = 1 << 20

// DefaultParams returns the no-prior-knowledge parameterization of §3:
// D1 = 1, D2 = n·diameter, with the corollaries' MLSH width choices.
func DefaultParams(space metric.Space, n, k int, seed uint64) Params {
	p := Params{Space: space, N: n, K: k, Seed: seed}
	p.ApplyDefaults()
	return p
}

// ApplyDefaults fills zero fields with the paper's choices.
func (p *Params) ApplyDefaults() {
	if p.D1 == 0 {
		p.D1 = 1
	}
	if p.D2 == 0 {
		p.D2 = float64(p.N) * p.Space.Diameter()
	}
	if p.Q == 0 {
		p.Q = 3
	}
	if p.KeyBits == 0 {
		p.KeyBits = 40
	}
}

// Validate reports an error for unusable parameter combinations.
func (p *Params) Validate() error {
	if err := p.Space.Validate(); err != nil {
		return err
	}
	if p.N < 1 || p.K < 1 || p.K > p.N {
		return fmt.Errorf("emd: need 1 <= k <= n, got n=%d k=%d", p.N, p.K)
	}
	if !(p.D1 >= 1) || !(p.D2 >= p.D1) {
		return fmt.Errorf("emd: need 1 <= D1 <= D2, got D1=%v D2=%v", p.D1, p.D2)
	}
	if p.Q < 3 {
		return fmt.Errorf("emd: Algorithm 1 requires q >= 3, got %d", p.Q)
	}
	return nil
}

// family returns the MLSH family for the space, with the width w chosen
// so that p ≥ e^(−k/(24·D2)) as §3 requires (footnotes 4–5): w is scaled
// so the family's base satisfies the constraint, and additionally so the
// validity radius r covers min(M, D2).
func (p *Params) family() (lsh.MLSH, error) {
	// Constraint 1: p_base ≥ e^(−k/(24·D2)). Each family has
	// p_base = e^(−c/w), so w ≥ 24·c·D2/k.
	// Constraint 2: r = ρr·w ≥ min(M, D2) with M the space diameter.
	need := math.Min(p.Space.Diameter(), p.D2)
	var m lsh.MLSH
	switch p.Space.Norm {
	case metric.Hamming:
		w := 24 * 2 * p.D2 / float64(p.K) // c = 2 for e^(−2/w)
		w = math.Max(w, need/0.79)
		w = math.Max(w, float64(p.Space.Dim)) // padding width must be ≥ d
		m = lsh.HammingMLSH(p.Space, w)
	case metric.L1:
		w := 24 * 2 * p.D2 / float64(p.K)
		w = math.Max(w, need/0.79)
		m = lsh.L1MLSH(p.Space, w)
	case metric.L2:
		c := 2 * math.Sqrt(2/math.Pi)
		w := 24 * c * p.D2 / float64(p.K)
		w = math.Max(w, need/0.99)
		m = lsh.L2MLSH(p.Space, w)
	default:
		return lsh.MLSH{}, fmt.Errorf("emd: no MLSH family for norm %v", p.Space.Norm)
	}
	if err := m.Validate(); err != nil {
		return lsh.MLSH{}, err
	}
	return m, nil
}

// plan holds the derived per-level structure shared by both parties.
type plan struct {
	params Params
	levels int   // t
	s      int   // total MLSH functions drawn
	prefix []int // prefix[i] = number of g functions used at level i (0-based)
	cfgs   []riblt.Config
	// kern evaluates the s MLSH draws that read the point. The others
	// are constant (padding draws of coordinate sampling — all but a
	// handful under DefaultParams on Hamming sets), and keyHash folds
	// their terms into per-level constants at plan build.
	kern    *lsh.Kernel
	keyHash hashx.PrefixHasher
}

// newPlan derives the full shared plan from Params. Both parties call it
// with identical Params, so everything (functions, seeds, geometry) is
// identical on both sides — this is the public-coin assumption made
// concrete.
func newPlan(p Params) (*plan, error) {
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := p.family()
	if err != nil {
		return nil, err
	}
	lnInvP := math.Log(1 / m.P)
	if lnInvP <= 0 {
		return nil, fmt.Errorf("emd: degenerate MLSH base p=%v", m.P)
	}
	// t = log2(D2/D1) + 1 levels; s = k/(8·D1·ln(1/p)) functions.
	t := int(math.Ceil(math.Log2(p.D2/p.D1))) + 1
	s := int(math.Ceil(float64(p.K) / (8 * p.D1 * lnInvP)))
	if s < 1 {
		s = 1
	}
	if s > maxFuncs {
		return nil, fmt.Errorf("emd: s=%d MLSH functions exceed MaxFuncs=%d; raise D1 or K", s, maxFuncs)
	}
	prefix := make([]int, t)
	for i := 0; i < t; i++ {
		// Level i (1-based in the paper) hashes with the first
		// 2^(i−1)·s·D1/D2 functions; clamp into [1, s].
		exact := math.Pow(2, float64(i)) * float64(s) * p.D1 / p.D2
		n := int(math.Round(exact))
		if n < 1 {
			n = 1
		}
		if n > s {
			n = s
		}
		prefix[i] = n
	}
	cells := p.CellsPerLevel
	if cells == 0 {
		cells = 4 * p.Q * p.Q * p.K
	}
	src := rng.New(p.Seed)
	famSrc := src.Split()
	keySrc := src.Split()
	tblSrc := src.Split()
	// The kernel draws the s functions of the dense lsh.Vector from the
	// same coins; the key hasher folds in the constant ones.
	kern := lsh.DrawKernel(m.Family, famSrc, s)
	keyHash := hashx.NewKeyHasher(keySrc, p.KeyBits).Compile(prefix, kern.Constant)
	cfgs := make([]riblt.Config, t)
	for i := range cfgs {
		cfgs[i] = riblt.Config{
			Cells:    cells,
			Q:        p.Q,
			Dim:      p.Space.Dim,
			Delta:    p.Space.Delta,
			KeyBits:  p.KeyBits,
			MaxItems: 2*p.N + 2,
			Seed:     tblSrc.Uint64(),
		}
	}
	return &plan{
		params:  p,
		levels:  t,
		s:       s,
		prefix:  prefix,
		cfgs:    cfgs,
		kern:    kern,
		keyHash: keyHash,
	}, nil
}

// keysInto computes a point's key at every level into dst (length >=
// levels): the kernel evaluates the active MLSH draws into scratch
// (length >= kern.Active()), then one pass over the nondecreasing level
// prefixes adds their terms to the folded constants of the rest. The
// cost is O(active draws), not O(s), and the keys are exactly those of
// the dense evaluation (lsh.Vector.HashPrefixInto, then
// hashx.KeyHasher.HashPrefixes). No allocation.
func (pl *plan) keysInto(dst []uint64, pt metric.Point, scratch []uint64) []uint64 {
	return pl.keyHash.HashPrefixes(dst, pl.kern.HashInto(scratch, pt))
}

// ---------------------------------------------------------------------------
// Plan cache. Deriving a plan draws s MLSH functions and the table
// seeds — by far the most allocation-heavy step of a session, yet a pure
// function of Params. Server and client paths construct handlers with
// identical Params for every peer, so plans are cached (a plan is
// immutable after construction and safe to share across goroutines).
// The cache is a small LRU: sweeps that vary the seed per
// run churn through it without growing it.

const planCacheSize = 32

type planCacheEntry struct {
	pl  *plan
	gen uint64
}

var (
	planMu    sync.Mutex
	planGen   uint64
	planCache = make(map[Params]*planCacheEntry, planCacheSize)
)

// planFor returns the shared plan for p, deriving and caching it on
// first use. The key is the defaulted Params value.
func planFor(p Params) (*plan, error) {
	p.ApplyDefaults()
	planMu.Lock()
	if e, ok := planCache[p]; ok {
		planGen++
		e.gen = planGen
		pl := e.pl
		planMu.Unlock()
		return pl, nil
	}
	planMu.Unlock()
	pl, err := newPlan(p) // outside the lock: derivation is expensive
	if err != nil {
		return nil, err
	}
	planMu.Lock()
	defer planMu.Unlock()
	if e, ok := planCache[p]; ok { // lost a race; share the winner
		return e.pl, nil
	}
	planGen++
	planCache[p] = &planCacheEntry{pl: pl, gen: planGen}
	if len(planCache) > planCacheSize {
		var oldestK Params
		oldest := uint64(0)
		for k, e := range planCache {
			if oldest == 0 || e.gen < oldest {
				oldest, oldestK = e.gen, k
			}
		}
		delete(planCache, oldestK)
	}
	return pl, nil
}

// Result reports one protocol run.
type Result struct {
	// SPrime is Bob's output point set S′B (nil when Failed).
	SPrime metric.PointSet
	// Failed is true when no level decoded within the cap — Algorithm
	// 1's explicit failure report (probability ≤ 1/8 when
	// EMD_k ≤ D2, Theorem 3.4).
	Failed bool
	// Level is i*, the finest decoded level (1-based; 0 when Failed).
	Level int
	// XA and XB are the decoded difference sets at level i*.
	XA, XB metric.PointSet
	// Stats is the exact communication tally.
	Stats transport.Stats
	// Levels and Funcs record the derived t and s for reporting.
	Levels, Funcs int
}

// Reconcile runs the full one-round protocol in-process: Alice encodes,
// the channel counts bits, Bob decodes and assembles S′B.
func Reconcile(p Params, sa, sb metric.PointSet) (Result, error) {
	pl, err := planFor(p)
	if err != nil {
		return Result{}, err
	}
	if len(sa) != pl.params.N || len(sb) != pl.params.N {
		return Result{}, fmt.Errorf("emd: |SA|=%d |SB|=%d, params.N=%d", len(sa), len(sb), pl.params.N)
	}
	var ch transport.Channel
	e, err := alice(pl, sa)
	if err != nil {
		return Result{}, err
	}
	ch.Send(transport.AliceToBob, e)
	res, err := bob(pl, sb, &ch)
	if err != nil {
		return Result{}, err
	}
	res.Stats = ch.Stats()
	res.Levels = pl.levels
	res.Funcs = pl.s
	return res, nil
}

// alice builds the t RIBLTs (sharded by point block, see parallel.go)
// and encodes them as the protocol's single message. Encoding itself is
// sequential over the merged cells, so the wire bytes are identical for
// any block count.
func alice(pl *plan, sa metric.PointSet) (*transport.Encoder, error) {
	tables, err := pl.buildTables(sa)
	if err != nil {
		return nil, err
	}
	return encodeTables(pl.levels, tables), nil
}

// encodeTables serializes the level tables as the protocol's single
// message; the incremental Sketch encodes through the same path, so an
// incrementally maintained sketch is bit-identical on the wire.
func encodeTables(levels int, tables []*riblt.Table) *transport.Encoder {
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(levels))
	for _, t := range tables {
		t.Encode(e)
	}
	return e
}

// bob receives the tables, deletes his pairs, finds i*, and assembles
// S′B.
func bob(pl *plan, sb metric.PointSet, ch *transport.Channel) (Result, error) {
	d, err := ch.Recv(transport.AliceToBob)
	if err != nil {
		return Result{}, err
	}
	return bobDecode(pl, sb, d)
}

// bobDecode is bob over an already-positioned decoder — the zero-copy
// path ApplyMessage and the wire handlers use.
func bobDecode(pl *plan, sb metric.PointSet, d *transport.Decoder) (Result, error) {
	tables, err := decodeTables(pl, d)
	if err != nil {
		return Result{}, err
	}
	return applyTables(pl, sb, tables)
}

// decodeTables reads a protocol message's level tables. On a decode
// error the tables already decoded go back to the riblt pool.
func decodeTables(pl *plan, d *transport.Decoder) ([]*riblt.Table, error) {
	nLevels, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if int(nLevels) != pl.levels {
		return nil, fmt.Errorf("emd: message has %d levels, plan has %d", nLevels, pl.levels)
	}
	tables := make([]*riblt.Table, pl.levels)
	for i := range tables {
		if tables[i], err = riblt.DecodeFrom(d, pl.cfgs[i]); err != nil {
			for _, t := range tables[:i] {
				t.Release()
			}
			return nil, err
		}
	}
	return tables, nil
}

// applyTables is Bob's core: delete his pairs from Alice's tables, find
// i*, assemble S′B. It consumes tables (deletion and peeling mutate
// them, and their memory returns to the riblt pool on return); callers
// holding a cached sketch clone first.
func applyTables(pl *plan, sb metric.PointSet, tables []*riblt.Table) (Result, error) {
	defer func() {
		for _, t := range tables {
			t.Release()
		}
	}()
	t := pl.levels
	allKeys := pl.levelKeys(sb)
	for j, b := range sb {
		for i, key := range allKeys[j*t : (j+1)*t] {
			tables[i].Delete(key, b)
		}
	}
	// Find i*: the largest level that peels fully to at most 4k pairs
	// (Algorithm 1's decode cap). Bob's rounding randomness is private.
	round := rng.New(pl.params.Seed ^ 0xb0b)
	for i := pl.levels - 1; i >= 0; i-- {
		res, err := tables[i].Peel(round)
		if err != nil {
			continue
		}
		if len(res.Inserted)+len(res.Deleted) > 4*pl.params.K {
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
		sPrime := assemble(pl.params.Space, sb, xa, xb)
		return Result{SPrime: sPrime, Level: i + 1, XA: xa, XB: xb}, nil
	}
	return Result{Failed: true}, nil
}

// assemble computes S′B = (SB \ YB) ∪ XA, where YB is the subset of SB
// matched to XB in the min-cost matching (the Hungarian step of
// Algorithm 1).
func assemble(space metric.Space, sb, xa, xb metric.PointSet) metric.PointSet {
	if len(xb) == 0 {
		return append(sb.Clone(), xa.Clone()...)
	}
	rows, _ := matching.Assign(matching.CostMatrix(space, xb, sb))
	drop := make([]bool, len(sb))
	dropped := 0
	for _, j := range rows {
		if j >= 0 {
			drop[j] = true
			dropped++
		}
	}
	out := make(metric.PointSet, 0, len(sb)-dropped+len(xa))
	for j, b := range sb {
		if !drop[j] {
			out = append(out, b.Clone())
		}
	}
	out = append(out, xa.Clone()...)
	return out
}

// NaiveBits returns the communication of the trivial protocol (Alice
// transmits her whole set): n·log|U| bits, the baseline every bound in
// the paper is compared against.
func NaiveBits(space metric.Space, n int) int64 {
	return int64(n) * int64(space.BitsPerPoint())
}

// Package gap implements the paper's Gap Guarantee protocol (§4): after
// reconciliation Bob holds S′B = SB ∪ TA where TA ⊆ SA contains every
// point of Alice's that is at least r2 from all of Bob's points, so every
// point in SA ∪ SB has a neighbor within r2 in S′B (Definition 4.1).
//
// The protocol (§4.1): each party derives for each of its elements a key —
// a vector of h = Θ(log n) entries, each entry a pairwise-independent hash
// of a batch of m = log_{p2}(1/2) LSH values. Close elements (≤ r1)
// produce keys agreeing in almost all entries; far elements (≥ r2) agree
// in about half whp. The parties reconcile the multisets of keys through
// the sets-of-sets substrate ([22], package setsets); Alice then sends
// every element whose key matches no key of Bob's in at least
// T = ⌈h·(1/2 + ε/6)⌉ entries, where ε = 1 − ρ.
//
// Alice applies that rule exactly without scanning all of Bob's keys. A
// pair agreeing in at least T of h entries disagrees in at most h−T, so
// if the h positions are split into P = h−T+1 groups, the pair agrees
// on every entry of at least one group (pigeonhole). She splits them
// into P contiguous groups, group g = [g·h/P, (g+1)·h/P), indexes Bob's
// keys by (group, the group's entries), and checks in full only the
// keys that share a whole group with hers; every other key agrees in
// fewer than T entries, so the verdict is the scan's. A whole group is
// a far more selective bucket than one entry when entries carry few
// bits; for the one-sided plan (T = 1) every group is one position.
//
// On the Hamming cube an LSH value is one sampled coordinate, so an
// entry takes at most (Δ+1)^m values however wide its hash. When that
// is at most 256 the keyer tabulates every entry's values at plan time
// and keys a point by table lookups (see keyer); the keys, and so the
// wire, are the same as hashing each entry afresh.
//
// Theorem 4.5's low-dimension variant uses the one-sided grid family
// (p2 = 0): keys shrink to h = Θ(log n / log(1/ρ̂)) entries and a single
// matching entry certifies closeness.
package gap

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/hashx"
	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/setsets"
	"repro/internal/transport"
)

// Params configures a Gap Guarantee run.
type Params struct {
	Space metric.Space
	// N is an upper bound on |SA| and |SB|.
	N int
	// R1 and R2 are the gap radii: points within R1 of the other party
	// are "close", points beyond R2 "far" (R1 < R2).
	R1, R2 float64
	// HFactor scales the key length h = HFactor·ceil(log2(N+2));
	// default 6. The constant inside Θ(log n) — larger sharpens the
	// Chernoff separation at linear cost in communication.
	HFactor int
	// Seed is the shared public-coin seed.
	Seed uint64
	// SetSets forwards tuning to the substrate (zero values = defaults).
	SetSets setsets.Params
}

// ApplyDefaults fills zero fields with the documented defaults, so a
// zero-value and an explicitly defaulted configuration behave — and
// digest — identically.
func (p *Params) ApplyDefaults() {
	if p.HFactor == 0 {
		p.HFactor = 6
	}
}

// EntryBits is the width of one key entry for sets of at most n points:
// Θ(log n) as the paper asks, 2·ceil(log2(n+2))+6 bits capped at 40.
func EntryBits(n int) uint {
	return min(2*uint(math.Ceil(math.Log2(float64(n)+2)))+6, 40)
}

// Validate reports an error for unusable parameters.
func (p *Params) Validate() error {
	if err := p.Space.Validate(); err != nil {
		return err
	}
	if p.N < 1 {
		return fmt.Errorf("gap: N = %d", p.N)
	}
	if !(0 < p.R1 && p.R1 < p.R2) {
		return fmt.Errorf("gap: need 0 < r1 < r2, got r1=%v r2=%v", p.R1, p.R2)
	}
	return nil
}

// derive picks the LSH family and its (r1, r2, p1, p2) guarantee for the
// space, following Corollary 4.3 (Hamming, bit/coordinate sampling) and
// Corollary 4.4 (ℓ1, randomly shifted grid with p2 pinned near 1/2).
func (p *Params) derive() (lsh.Family, lsh.Params, error) {
	switch p.Space.Norm {
	case metric.Hamming:
		if p.R2 > float64(p.Space.Dim)/2 {
			return nil, lsh.Params{}, fmt.Errorf(
				"gap: coordinate sampling needs r2 <= d/2 for p2 >= 1/2 (r2=%v, d=%d)",
				p.R2, p.Space.Dim)
		}
		prm := lsh.HammingParams(p.Space, p.R1, p.R2)
		return lsh.NewCoordSampling(p.Space, float64(p.Space.Dim)), prm, nil
	case metric.L1:
		// Grid width w = r2/ln 2 puts p2 = e^(−r2/w) at exactly 1/2.
		w := p.R2 / math.Ln2
		prm := lsh.GridL1Params(p.Space, p.R1, p.R2, w)
		return lsh.NewGridL1(p.Space, w), prm, nil
	default:
		return nil, lsh.Params{}, fmt.Errorf(
			"gap: general protocol supports Hamming and ℓ1 (got %v); use ReconcileOneSided for ℓ2",
			p.Space.Norm)
	}
}

// Result reports a protocol run.
type Result struct {
	// SPrime is Bob's final set SB ∪ TA.
	SPrime metric.PointSet
	// TA holds the elements Alice transmitted.
	TA metric.PointSet
	// Stats is the exact communication tally; Rounds counts messages.
	Stats transport.Stats
	// FarKeys is the number of Alice's distinct keys classified far.
	FarKeys int
	// Threshold and H record the derived match threshold and key length.
	Threshold, H int
	// Rho is the LSH quality parameter actually achieved.
	Rho float64
}

// keyer builds one element's key: h entries, each a pairwise hash of m
// LSH values. The kernel holds the h·m draws, batch-major (the gap
// families are unpadded, so every draw reads the point), and pows each
// entry's m polynomial weights, precomputed.
//
// When every draw samples a coordinate of a space with a small alphabet
// [0, Δ] (the Hamming cube: Δ = 1), an entry takes at most (Δ+1)^m
// values, and if that is at most maxEntryTable the keyer tabulates them:
// entry j's value for digits c_0 … c_{m−1} is
// table[j·size + Σ c_t·(Δ+1)^t], the hash the general path computes from
// the LSH values c_t + 1. Keying a point is then m coordinate reads and
// one lookup per entry. A point with a coordinate outside [0, Δ] takes
// the general path, so keys are the same for every input.
type keyer struct {
	h, m    int
	kern    *lsh.Kernel
	entryKH []hashx.KeyHasher
	pows    []uint64 // entry j's weights are pows[j·m:(j+1)·m]
	bits    uint
	delta   uint32   // with table: the largest tabulated coordinate
	size    int      // with table: (Δ+1)^m, one entry's table length
	table   []uint64 // entry tables, or nil for the general path alone
}

// maxEntryTable caps (Δ+1)^m, the values one entry's table holds.
const maxEntryTable = 256

func newKeyer(family lsh.Family, delta int32, h, m int, bits uint, src *rng.Source) *keyer {
	kern := lsh.DrawKernel(family, src, h*m)
	khs := make([]hashx.KeyHasher, h)
	pows := make([]uint64, 0, h*m)
	for j := range khs {
		khs[j] = hashx.NewKeyHasher(src, bits)
		pows = khs[j].AppendPowers(pows, m)
	}
	k := &keyer{h: h, m: m, kern: kern, entryKH: khs, pows: pows, bits: bits}
	if kern.Coords() != nil {
		k.tabulate(delta)
	}
	return k
}

// tabulate builds the entry tables over the alphabet [0, delta] when an
// entry's table would hold at most maxEntryTable values.
func (k *keyer) tabulate(delta int32) {
	base, size := int(delta)+1, 1
	for t := 0; t < k.m; t++ {
		if size *= base; size > maxEntryTable {
			return
		}
	}
	k.delta, k.size = uint32(delta), size
	k.table = make([]uint64, k.h*size)
	var vals [8]uint64 // base >= 2 and size <= 256, so m <= 8
	for j := 0; j < k.h; j++ {
		for d := 0; d < size; d++ {
			for t, r := 0, d; t < k.m; t, r = t+1, r/base {
				vals[t] = uint64(r%base) + 1
			}
			k.table[j*size+d] = k.entryKH[j].HashPowers(vals[:k.m], k.pows[j*k.m:(j+1)*k.m])
		}
	}
}

// keyInto writes p's key (h entries) into dst, using batch (m entries)
// as scratch.
func (k *keyer) keyInto(dst, batch []uint64, p metric.Point) {
	if k.table != nil && k.tableKeyInto(dst, p) {
		return
	}
	for j := range dst {
		lo, hi := j*k.m, (j+1)*k.m
		vals := k.kern.HashRangeInto(batch, p, lo, hi)
		dst[j] = k.entryKH[j].HashPowers(vals, k.pows[lo:hi])
	}
}

// tableKeyInto writes p's key from the entry tables. It reports false,
// leaving dst partly written, if p has a coordinate outside [0, Δ].
func (k *keyer) tableKeyInto(dst []uint64, p metric.Point) bool {
	coords, base := k.kern.Coords(), k.delta+1
	for j := range dst {
		cs := coords[j*k.m : (j+1)*k.m]
		var d uint32
		for t := len(cs) - 1; t >= 0; t-- {
			c := uint32(p[cs[t]])
			if c > k.delta {
				return false
			}
			d = d*base + c
		}
		dst[j] = k.table[j*k.size+int(d)]
	}
	return true
}

// keyBatch computes every element's key into one flat slice: element
// i's key is out[i·h : (i+1)·h], sharing one batch scratch.
func (pl *plan) keyBatch(pts metric.PointSet) []uint64 {
	h := pl.h
	out := make([]uint64, len(pts)*h)
	batch := make([]uint64, pl.ky.m)
	for i, p := range pts {
		pl.ky.keyInto(out[i*h:(i+1)*h], batch, p)
	}
	return out
}

// writeKey writes a key as fixed-width entries, zero-padded to a whole
// byte: one setsets child payload.
func writeKey(e *transport.Encoder, key []uint64, bits uint) {
	for _, v := range key {
		e.WriteBits(v, bits)
	}
	if r := uint(len(key)) * bits % 8; r != 0 {
		e.WriteBits(0, 8-r)
	}
}

// encodeKey serializes a key into one allocation sized in advance.
func encodeKey(key []uint64, bits uint) []byte {
	var e transport.Encoder
	e.Grow((len(key)*int(bits) + 7) / 8)
	writeKey(&e, key, bits)
	data, _ := e.Pack()
	return data
}

// encodeKeys serializes flat keys (h entries each) back to back into one
// backing array. Payload i equals encodeKey of key i and is
// capacity-capped, so no payload can grow into the next.
func encodeKeys(keys []uint64, h int, bits uint) [][]byte {
	n, size := len(keys)/h, (h*int(bits)+7)/8
	var e transport.Encoder
	e.Grow(n * size)
	for i := 0; i < n; i++ {
		writeKey(&e, keys[i*h:(i+1)*h], bits)
	}
	data, _ := e.Pack()
	out := make([][]byte, n)
	for i := range out {
		out[i] = data[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// decodeKey reads a payload written by encodeKey into dst (h entries).
func decodeKey(dst []uint64, payload []byte, bits uint) {
	d := transport.NewDecoder(payload)
	for j := range dst {
		v, err := d.ReadBits(bits)
		if err != nil {
			// Payload sizes are fixed by construction and checked at
			// every entry point; a short read is a protocol bug.
			panic(fmt.Sprintf("gap: short key payload: %v", err))
		}
		dst[j] = v
	}
}

// matches counts equal entries between two keys.
func matches(a, b []uint64) int {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}

// plan bundles the seed-derived state both parties compute identically
// for one protocol variant (public coins made concrete).
type plan struct {
	params    Params
	ky        *keyer
	threshold int
	h         int
	rho       float64
	ssSeed    uint64
}

// newPlan derives the general (Theorem 4.2) plan.
func newPlan(p Params) (*plan, error) {
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	family, prm, err := p.derive()
	if err != nil {
		return nil, err
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	rho := prm.Rho()
	if rho >= 1 {
		return nil, fmt.Errorf("gap: rho = %v >= 1; widen the gap r2/r1", rho)
	}
	eps := 1 - rho
	// m = log_{p2}(1/2), at least 1.
	m := int(math.Ceil(math.Log(0.5) / math.Log(prm.P2)))
	if m < 1 {
		m = 1
	}
	h := p.HFactor * int(math.Ceil(math.Log2(float64(p.N)+2)))
	threshold := int(math.Ceil(float64(h) * (0.5 + eps/6)))
	src := rng.New(p.Seed)
	return &plan{
		params:    p,
		ky:        newKeyer(family, p.Space.Delta, h, m, EntryBits(p.N), src.Split()),
		threshold: threshold,
		h:         h,
		rho:       rho,
		ssSeed:    src.Uint64(),
	}, nil
}

// newOneSidedPlan derives the Theorem 4.5 plan.
func newOneSidedPlan(p Params, pExp float64) (*plan, error) {
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := lsh.NewOneSidedGrid(p.Space, p.R1, p.R2, pExp)
	if g.RhoHat >= 1 {
		return nil, fmt.Errorf("gap: rho-hat = %v >= 1; Theorem 4.5 needs r2 > r1·d", g.RhoHat)
	}
	// h = Θ(log n / log(1/ρ̂)); the leading constant mirrors HFactor.
	denom := math.Log(1 / g.RhoHat)
	h := int(math.Ceil(float64(p.HFactor) * math.Log(float64(p.N)+2) / denom))
	if h < 1 {
		h = 1
	}
	src := rng.New(p.Seed)
	return &plan{
		params:    p,
		ky:        newKeyer(g, p.Space.Delta, h, 1, EntryBits(p.N), src.Split()),
		threshold: 1, // one matching entry certifies closeness (p2 = 0)
		h:         h,
		rho:       g.RhoHat,
		ssSeed:    src.Uint64(),
	}, nil
}

// payloadBytes is the size of one encoded key.
func (pl *plan) payloadBytes() int { return (pl.h*int(pl.ky.bits) + 7) / 8 }

func (pl *plan) setsetsParams() setsets.Params {
	ss := pl.params.SetSets
	ss.PayloadBytes = pl.payloadBytes()
	ss.Seed = pl.ssSeed
	return ss
}

// AliceReport is what Alice's side of the protocol learns.
type AliceReport struct {
	// TA holds the elements she transmitted (far keys' elements).
	TA metric.PointSet
	// FarKeys is the number of distinct keys classified far.
	FarKeys int
}

// runAlice executes Alice's side: key construction, sets-of-sets (she is
// the setsets Alice), far-key classification, and the element round.
//
// Classification applies §4.1's rule exactly: an element is far when its
// key agrees with no key of Bob's in T = threshold or more of its h
// entries. Since such a pair disagrees in at most h−T entries, it must
// agree on a whole group of any split into P = h−T+1 groups
// (pigeonhole), so only Bob keys sharing a whole group with Alice's can
// be close, and checking just those (closeIndex) gives the same verdict
// as scanning all of Bob's keys.
func runAlice(pl *plan, conn transport.Conn, sa metric.PointSet) (AliceReport, error) {
	p := pl.params
	if len(sa) > p.N {
		return AliceReport{}, fmt.Errorf("gap: |SA|=%d exceeds N=%d", len(sa), p.N)
	}
	keys := pl.keyBatch(sa)
	payloads := encodeKeys(keys, pl.h, pl.ky.bits)
	children := make([]setsets.Child, len(payloads))
	for i, pay := range payloads {
		children[i] = setsets.Child{Payload: pay}
	}
	rec, err := setsets.RunAlice(pl.setsetsParams(), conn, children)
	if err != nil {
		return AliceReport{}, fmt.Errorf("gap: key reconciliation: %w", err)
	}

	far, farKeys := pl.classify(keys, payloads, rec)
	var ta metric.PointSet
	for i, f := range far {
		if f {
			ta = append(ta, sa[i])
		}
	}

	// Final round: transmit the far elements.
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(len(ta)))
	cb := uint(p.Space.BitsPerCoordinate())
	for _, pt := range ta {
		for _, c := range pt {
			e.WriteBits(uint64(c), cb)
		}
	}
	if err := conn.Send(e); err != nil {
		return AliceReport{}, err
	}
	return AliceReport{TA: ta, FarKeys: farKeys}, nil
}

// classify reports which of Alice's elements have far keys, and how
// many distinct keys are far. Bob's keys are Alice's multiset minus
// rec.AliceOnly plus rec.BobOnly; an Alice key Bob also holds is close
// without a search.
func (pl *plan) classify(keys []uint64, payloads [][]byte, rec setsets.Result) (far []bool, farKeys int) {
	h, n := pl.h, len(payloads)
	// Sort element indices by payload so equal keys sit together; each
	// run is one distinct key, and left[g] at a run's first position g
	// counts the copies Bob still shares once rec.AliceOnly is removed.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(payloads[a], payloads[b]) })
	left := make([]int32, n)
	for g := 0; g < n; {
		e := g + 1
		for e < n && bytes.Equal(payloads[order[e]], payloads[order[g]]) {
			e++
		}
		left[g] = int32(e - g)
		g = e
	}
	for _, c := range rec.AliceOnly {
		g, ok := slices.BinarySearchFunc(order, c.Payload, func(i int32, t []byte) int {
			return bytes.Compare(payloads[i], t)
		})
		if ok && left[g] > 0 {
			left[g]--
		}
	}

	bob := make([]uint64, 0, (n+len(rec.BobOnly))*h)
	for g := 0; g < n; g++ {
		if left[g] > 0 {
			i := int(order[g])
			bob = append(bob, keys[i*h:(i+1)*h]...)
		}
	}
	for _, c := range rec.BobOnly {
		bob = bob[:len(bob)+h]
		decodeKey(bob[len(bob)-h:], c.Payload, pl.ky.bits)
	}

	idx := newCloseIndex(bob, h, pl.threshold)
	far = make([]bool, n)
	for g := 0; g < n; {
		lead := int(order[g])
		isFar := left[g] == 0 && !idx.close(keys[lead*h:(lead+1)*h])
		if isFar {
			farKeys++
		}
		for ; g < n && bytes.Equal(payloads[order[g]], payloads[lead]); g++ {
			far[order[g]] = isFar
		}
	}
	return far, farKeys
}

// closeIndex answers "does some indexed key agree with this one in at
// least t of h entries?" exactly, by the pigeonhole rule in the package
// doc: the h positions are split into p = h−t+1 contiguous groups, and
// only keys agreeing with the query on a whole group are candidates.
// Keys are bucketed by (group, the group's entries) in one
// counting-sorted array, and each candidate is checked in full at most
// once per query.
type closeIndex struct {
	keys    []uint64 // indexed keys, h entries each
	h, t, p int
	shift   uint    // bucket of a hash is hash >> shift
	start   []int32 // bucket b holds ids[start[b]:start[b+1]]
	ids     []int32 // key numbers, grouped by bucket, ascending within one
	stamp   []int32 // stamp[k] == query once key k was checked this query
	query   int32
}

func newCloseIndex(keys []uint64, h, t int) *closeIndex {
	n, p := len(keys)/h, h-t+1
	nb, shift := 1, uint(64)
	for nb < n*p {
		nb, shift = nb<<1, shift-1
	}
	x := &closeIndex{
		keys: keys, h: h, t: t, p: p, shift: shift,
		start: make([]int32, nb+1),
		ids:   make([]int32, n*p),
		stamp: make([]int32, n),
	}
	// Counting sort: start[b] first counts bucket b, then (prefix sums)
	// ends it; filling backwards moves each start[b] to its bucket's
	// first slot and keeps ids ascending within a bucket.
	for k := 0; k < n; k++ {
		key := keys[k*h : (k+1)*h]
		for g := 0; g < p; g++ {
			x.start[x.bucket(g, key)]++
		}
	}
	for b := 1; b <= nb; b++ {
		x.start[b] += x.start[b-1]
	}
	for k := n - 1; k >= 0; k-- {
		key := keys[k*h : (k+1)*h]
		for g := p - 1; g >= 0; g-- {
			b := x.bucket(g, key)
			x.start[b]--
			x.ids[x.start[b]] = int32(k)
		}
	}
	return x
}

// group returns the positions [lo, hi) of group g.
func (x *closeIndex) group(g int) (lo, hi int) {
	return g * x.h / x.p, (g + 1) * x.h / x.p
}

// bucket hashes group g of key.
func (x *closeIndex) bucket(g int, key []uint64) int {
	lo, hi := x.group(g)
	v := uint64(g) << 48
	for _, e := range key[lo:hi] {
		v = (v ^ e) * 0x9e3779b97f4a7c15
	}
	return int(v >> x.shift)
}

// close reports whether some indexed key agrees with a in at least t
// entries.
func (x *closeIndex) close(a []uint64) bool {
	x.query++
	h := x.h
	for g := 0; g < x.p; g++ {
		lo, hi := x.group(g)
		b := x.bucket(g, a)
		for _, k := range x.ids[x.start[b]:x.start[b+1]] {
			bk := x.keys[int(k)*h : int(k+1)*h]
			if x.stamp[k] == x.query || !slices.Equal(bk[lo:hi], a[lo:hi]) {
				continue // checked already, or another bucket's group
			}
			x.stamp[k] = x.query
			if matches(a, bk) >= x.t {
				return true
			}
		}
	}
	return false
}

// runBob executes Bob's side: key construction, sets-of-sets (he is the
// setsets Bob), then receive the far elements and union them in.
func runBob(pl *plan, conn transport.Conn, sb metric.PointSet) (Result, error) {
	p := pl.params
	if len(sb) > p.N {
		return Result{}, fmt.Errorf("gap: |SB|=%d exceeds N=%d", len(sb), p.N)
	}
	payloads := encodeKeys(pl.keyBatch(sb), pl.h, pl.ky.bits)
	bobChildren := make([]setsets.Child, len(sb))
	for i, pay := range payloads {
		bobChildren[i] = setsets.Child{Payload: pay}
	}
	if err := setsets.RunBob(pl.setsetsParams(), conn, bobChildren); err != nil {
		return Result{}, fmt.Errorf("gap: key reconciliation: %w", err)
	}

	d, err := conn.Recv()
	if err != nil {
		return Result{}, err
	}
	cnt, err := d.ReadUvarint()
	if err != nil {
		return Result{}, err
	}
	if cnt > uint64(p.N) {
		return Result{}, fmt.Errorf("gap: peer claims %d far elements with N=%d", cnt, p.N)
	}
	cb := uint(p.Space.BitsPerCoordinate())
	sPrime := sb.Clone()
	var ta metric.PointSet
	for i := uint64(0); i < cnt; i++ {
		pt := make(metric.Point, p.Space.Dim)
		for j := range pt {
			v, err := d.ReadBits(cb)
			if err != nil {
				return Result{}, err
			}
			pt[j] = int32(v)
		}
		ta = append(ta, pt)
		sPrime = append(sPrime, pt)
	}
	return Result{
		SPrime:    sPrime,
		TA:        ta,
		Threshold: pl.threshold,
		H:         pl.h,
		Rho:       pl.rho,
	}, nil
}

// RunAlice executes Alice's side of the general protocol over conn.
func RunAlice(p Params, conn transport.Conn, sa metric.PointSet) (AliceReport, error) {
	pl, err := newPlan(p)
	if err != nil {
		return AliceReport{}, err
	}
	return runAlice(pl, conn, sa)
}

// RunBob executes Bob's side of the general protocol over conn.
func RunBob(p Params, conn transport.Conn, sb metric.PointSet) (Result, error) {
	pl, err := newPlan(p)
	if err != nil {
		return Result{}, err
	}
	return runBob(pl, conn, sb)
}

// reconcile drives both parties in-process over a pipe.
func reconcile(pl *plan, sa, sb metric.PointSet) (Result, error) {
	aConn, bConn := transport.NewPipe()
	type bobOut struct {
		res Result
		err error
	}
	done := make(chan bobOut, 1)
	go func() {
		res, err := runBob(pl, bConn, sb)
		// Closing Bob's end unblocks Alice if he failed before she
		// finished receiving.
		bConn.Close()
		done <- bobOut{res, err}
	}()
	aRep, aErr := runAlice(pl, aConn, sa)
	// Closing Alice's end unblocks Bob if she failed before sending.
	aConn.Close()
	b := <-done
	if aErr != nil {
		return Result{}, aErr
	}
	if b.err != nil {
		return Result{}, b.err
	}
	res := b.res
	res.FarKeys = aRep.FarKeys
	res.Stats = aConn.Stats()
	return res, nil
}

// Reconcile runs the full 4-round general protocol (Theorem 4.2)
// in-process: Alice and Bob execute as concurrent parties over a counted
// pipe.
func Reconcile(p Params, sa, sb metric.PointSet) (Result, error) {
	pl, err := newPlan(p)
	if err != nil {
		return Result{}, err
	}
	return reconcile(pl, sa, sb)
}

// ReconcileOneSided runs the Theorem 4.5 variant for ([∆]^d, ℓp): the
// one-sided grid family has p2 = 0, so keys shrink to
// h = Θ(log n / log(1/ρ̂)) single-function entries and one matching entry
// certifies closeness (≤ r2). pExp is the norm exponent (1 for ℓ1, 2 for
// ℓ2).
func ReconcileOneSided(p Params, pExp float64, sa, sb metric.PointSet) (Result, error) {
	pl, err := newOneSidedPlan(p, pExp)
	if err != nil {
		return Result{}, err
	}
	return reconcile(pl, sa, sb)
}

// NaiveBits returns the trivial protocol's cost (Alice sends everything):
// n·log|U| bits.
func NaiveBits(space metric.Space, n int) int64 {
	return int64(n) * int64(space.BitsPerPoint())
}

// Package setsets implements the multiset-of-sets reconciliation
// substrate the Gap Guarantee protocol invokes (§4.1, citing
// Mitzenmacher & Morgan, "Reconciling Graphs and Sets of Sets" [22],
// Theorem E.1). Alice and Bob each hold a multiset of children — here a
// child is a fixed-size byte payload (the Gap protocol's serialized LSH
// key vector) — and the protocol lets Alice recover Bob's multiset using
// communication proportional to the number of differing children (plus a
// difference-estimation sketch), not to the multiset size.
//
// Faithfulness note: [22]'s full protocol also
// charges sub-child granularity for children that differ only slightly;
// we reconcile whole differing children. For the Gap protocol's keys,
// where a child is Θ(log² n) bits and z counts child-level differences,
// this preserves the (k + ρn)·polylog(n) communication shape Theorem 4.2
// measures, which is what our tests check.
//
// Wire structure (between 3 and 3+2·maxRetries messages):
//
//	round 1 (Alice→Bob): strata estimator over child fingerprints
//	round 2 (Bob→Alice): KV IBLT (fingerprint → payload) sized to the
//	                     difference estimate
//	round 3 (Alice→Bob): ack, or a retry request that doubles the size
//	                     (then Bob resends, etc.)
//
// The parties are independent state machines (RunAlice, RunBob) over a
// transport.Conn, so the protocol runs unchanged in-process or across a
// network; Reconcile wires both ends together for tests.
package setsets

import (
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Child is one member of a party's multiset.
type Child struct {
	// Payload is the child's fixed-size serialized content. All children
	// in both multisets must have equal length.
	Payload []byte
}

// Params configures a reconciliation. Both parties must use identical
// Params.
type Params struct {
	// PayloadBytes is the fixed child size.
	PayloadBytes int
	// Seed is the shared public-coin seed.
	Seed uint64
	// StrataCells sizes the estimator's per-stratum IBLTs (default 80).
	StrataCells int
	// Q is the IBLT hash count (default 3).
	Q int
	// MaxRetries bounds the doubling rounds on decode failure
	// (default 6).
	MaxRetries int
	// SafetyFactor scales the estimated difference when sizing the IBLT
	// (default 2).
	SafetyFactor float64
}

// ApplyDefaults fills zero fields with the documented defaults, so a
// zero-value and an explicitly defaulted configuration behave — and
// digest — identically.
func (p *Params) ApplyDefaults() {
	if p.StrataCells == 0 {
		p.StrataCells = iblt.StrataCells
	}
	if p.Q == 0 {
		p.Q = 3
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 6
	}
	if p.SafetyFactor == 0 {
		p.SafetyFactor = 2
	}
}

// shared holds the seed-derived state both parties compute identically.
type shared struct {
	fp          hashx.Mixer
	strataSeed  uint64
	tblSeedBase uint64
}

func deriveShared(p Params) shared {
	src := rng.New(p.Seed)
	return shared{
		fp:          hashx.NewMixer(src),
		strataSeed:  src.Uint64(),
		tblSeedBase: src.Uint64(),
	}
}

// Result reports what Alice learned.
type Result struct {
	// BobOnly are children present in Bob's multiset but not Alice's
	// (with multiplicity).
	BobOnly []Child
	// AliceOnly are children present in Alice's multiset but not Bob's.
	AliceOnly []Child
	// Rounds is the number of messages this party participated in.
	Rounds int
	// EstimatedDiff is the strata estimate that sized round 2 (only the
	// Bob side computes it; Alice reports 0).
	EstimatedDiff int
}

// ErrGaveUp is returned when MaxRetries doublings still fail to decode.
var ErrGaveUp = errors.New("setsets: reconciliation failed after max retries")

// items converts a multiset of children into IBLT items, folding each
// duplicate child's occurrence index into its fingerprint so duplicates
// within one party become distinct IBLT keys while identical children
// across parties still cancel pairwise.
func items(children []Child, fp hashx.Mixer, payloadBytes int) ([]uint64, [][]byte, error) {
	keys := make([]uint64, len(children))
	vals := make([][]byte, len(children))
	occ := make(map[uint64]uint64, len(children))
	for i, c := range children {
		if len(c.Payload) != payloadBytes {
			return nil, nil, fmt.Errorf("setsets: child %d has %d bytes, expected %d",
				i, len(c.Payload), payloadBytes)
		}
		base := fp.HashBytes(c.Payload)
		n := occ[base]
		occ[base] = n + 1
		keys[i] = fp.Hash(base ^ (n+1)*0x9e3779b97f4a7c15)
		vals[i] = c.Payload
	}
	return keys, vals, nil
}

// RunAlice executes Alice's side: send the strata sketch, then
// repeatedly receive Bob's table, try to decode, and ack or ask for a
// bigger one. On success she holds the child-level difference.
func RunAlice(p Params, conn transport.Conn, aliceChildren []Child) (Result, error) {
	p.ApplyDefaults()
	sh := deriveShared(p)
	aKeys, aVals, err := items(aliceChildren, sh.fp, p.PayloadBytes)
	if err != nil {
		return Result{}, err
	}

	// Round 1: strata estimator over Alice's fingerprints.
	e := transport.NewEncoder()
	iblt.NewStrataFromKeys(p.StrataCells, sh.strataSeed, aKeys).Encode(e)
	if err := conn.Send(e); err != nil {
		return Result{}, err
	}
	rounds := 1

	for attempt := 0; ; attempt++ {
		d, err := conn.Recv()
		if err != nil {
			return Result{}, err
		}
		rounds++
		if _, err := d.ReadUvarint(); err != nil { // attempt tag
			return Result{}, err
		}
		seed := sh.tblSeedBase + uint64(attempt)*0x1000193
		got, err := iblt.DecodeKVFrom(d, seed)
		if err != nil {
			return Result{}, err
		}
		if got.ValBytes() != p.PayloadBytes {
			// Deleting Alice's children from it would panic on the
			// width mismatch; the peer's table is simply malformed.
			return Result{}, fmt.Errorf("setsets: peer table holds %d-byte values, expected %d",
				got.ValBytes(), p.PayloadBytes)
		}
		for i, k := range aKeys {
			got.Delete(k, aVals[i])
		}
		added, removed, decErr := got.Decode()

		e := transport.NewEncoder()
		e.WriteBool(decErr == nil)
		if err := conn.Send(e); err != nil {
			return Result{}, err
		}
		rounds++
		if decErr == nil {
			res := Result{Rounds: rounds}
			for _, kv := range added {
				res.BobOnly = append(res.BobOnly, Child{Payload: kv.Value})
			}
			for _, kv := range removed {
				res.AliceOnly = append(res.AliceOnly, Child{Payload: kv.Value})
			}
			return res, nil
		}
		if attempt >= p.MaxRetries {
			return Result{Rounds: rounds}, ErrGaveUp
		}
	}
}

// RunBob executes Bob's side: receive the sketch, estimate the
// difference, and send tables (doubling on nack) until Alice acks. A
// peer's sketch that asks for more than iblt.MaxDiff differences is
// refused before any table is allocated.
func RunBob(p Params, conn transport.Conn, bobChildren []Child) error {
	p.ApplyDefaults()
	sh := deriveShared(p)
	bKeys, bVals, err := items(bobChildren, sh.fp, p.PayloadBytes)
	if err != nil {
		return err
	}

	d, err := conn.Recv()
	if err != nil {
		return err
	}
	remoteStrata, err := iblt.DecodeStrata(d, sh.strataSeed)
	if err != nil {
		return err
	}
	est, err := iblt.NewStrataFromKeys(p.StrataCells, sh.strataSeed, bKeys).Estimate(remoteStrata)
	if err != nil {
		return err
	}
	if est > iblt.MaxDiff {
		return fmt.Errorf("setsets: difference estimate %d exceeds limit %d", est, iblt.MaxDiff)
	}

	diffBound := int(float64(est)*p.SafetyFactor) + 8
	for attempt := 0; ; attempt++ {
		if diffBound > iblt.MaxDiff {
			return fmt.Errorf("setsets: IBLT bound %d exceeds limit %d", diffBound, iblt.MaxDiff)
		}
		cells := iblt.CellsForDiff(diffBound, p.Q)
		seed := sh.tblSeedBase + uint64(attempt)*0x1000193
		tbl := iblt.NewKV(cells, p.Q, p.PayloadBytes, seed)
		for i, k := range bKeys {
			tbl.Insert(k, bVals[i])
		}
		e := transport.NewEncoder()
		e.WriteUvarint(uint64(attempt))
		tbl.Encode(e)
		if err := conn.Send(e); err != nil {
			return err
		}
		ack, err := conn.Recv()
		if err != nil {
			return err
		}
		ok, err := ack.ReadBool()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if attempt >= p.MaxRetries {
			return ErrGaveUp
		}
		diffBound *= 2
	}
}

// Reconcile runs both parties in-process over a pipe and returns Alice's
// result plus the exact traffic stats.
func Reconcile(p Params, aliceChildren, bobChildren []Child) (Result, transport.Stats, error) {
	aConn, bConn := transport.NewPipe()
	bobErr := make(chan error, 1)
	go func() {
		err := RunBob(p, bConn, bobChildren)
		// Closing unblocks Alice if Bob failed before she finished.
		bConn.Close()
		bobErr <- err
	}()
	res, err := RunAlice(p, aConn, aliceChildren)
	// Closing unblocks Bob if Alice failed before sending.
	aConn.Close()
	if berr := <-bobErr; err == nil && berr != nil {
		err = berr
	}
	return res, aConn.Stats(), err
}

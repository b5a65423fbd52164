package netproto

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/emd"
	"repro/internal/iblt"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

func clusterPoints(space metric.Space, n int, seed uint64) metric.PointSet {
	src := rng.New(seed)
	out := make(metric.PointSet, n)
	for i := range out {
		pt := make(metric.Point, space.Dim)
		for j := range pt {
			pt[j] = int32(src.Uint64() % uint64(space.Delta+1))
		}
		out[i] = pt
	}
	return out
}

func newSyncSet(t *testing.T, space metric.Space, pts metric.PointSet, seed uint64) *live.Set {
	t.Helper()
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: seed}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// runPair drives an initiator/responder handler pair over a duplex pipe.
func runPair(t *testing.T, init, resp Handler) {
	t.Helper()
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(b, resp)
		errc <- err
	}()
	if _, err := RunInitiator(a, init); err != nil {
		t.Fatalf("initiator: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("responder: %v", err)
	}
}

func idsOf(ls *live.Set) []uint64 {
	ids := append([]uint64(nil), ls.Snapshot().IDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestProbeMatchAndEstimate(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 50, 1)
	a := newSyncSet(t, space, shared, 9)
	b := newSyncSet(t, space, shared, 9)

	probe := NewProbeInitiator(a)
	runPair(t, probe, NewProbeResponderFactory(b)())
	if !probe.Matched {
		t.Fatalf("identical sets did not match: local %+v remote %+v", probe.Local, probe.Remote)
	}
	if probe.Estimate != 0 {
		t.Fatalf("identical sets estimate = %d, want 0", probe.Estimate)
	}

	// Diverge b by 12 points and probe again.
	for _, pt := range clusterPoints(space, 12, 2) {
		if err := b.Add(pt); err != nil {
			t.Fatal(err)
		}
	}
	probe = NewProbeInitiator(a)
	runPair(t, probe, NewProbeResponderFactory(b)())
	if probe.Matched {
		t.Fatal("diverged sets matched")
	}
	if probe.Estimate <= 0 {
		t.Fatalf("diverged sets estimate = %d, want > 0", probe.Estimate)
	}
	if probe.Remote.Distinct != 62 {
		t.Fatalf("remote distinct = %d, want 62", probe.Remote.Distinct)
	}
}

// countingConn counts the bytes written through a connection end.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestProbeMatchedMovesFewBytes: a probe between identical sets moves
// its hello, accept and fixed summary fields and nothing else — under
// 64 bytes each way on the connection, frame headers included.
func TestProbeMatchedMovesFewBytes(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 64, 3)
	a := newSyncSet(t, space, shared, 9)
	b := newSyncSet(t, space, shared, 9)

	pa, pb := duplex()
	defer pa.Close()
	defer pb.Close()
	ca, cb := &countingConn{Conn: pa}, &countingConn{Conn: pb}
	probe := NewProbeInitiator(a)
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(cb, NewProbeResponderFactory(b)())
		errc <- err
	}()
	if _, err := RunInitiator(ca, probe); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !probe.Matched || probe.Estimate != 0 {
		t.Fatalf("identical sets: matched %v, estimate %d; want true, 0", probe.Matched, probe.Estimate)
	}
	if up, down := ca.n.Load(), cb.n.Load(); up >= 64 || down >= 64 {
		t.Fatalf("matched probe moved %d bytes out and %d back, want < 64 each", up, down)
	}
}

// TestProbeMismatchCarriesOneStrata: when the sets differ, the
// prober's frame is still the fixed fields alone, and the reply is the
// fixed fields followed by exactly one strata, the responder's cached
// encoding. One frame goes each way.
func TestProbeMismatchCarriesOneStrata(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 64, 3)
	a := newSyncSet(t, space, shared, 9)
	b := newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, 5, 4)...), 9)

	alice, bob := transport.NewPipe()
	probe := NewProbeInitiator(a)
	resp := NewProbeResponderFactory(b)().(*ProbeResponder)
	errc := make(chan error, 1)
	go func() { errc <- resp.Run(bob) }()
	if err := probe.Run(alice); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if probe.Matched || probe.Remote.Strata == nil {
		t.Fatalf("diverged sets: matched %v, remote strata %v; want a mismatch carrying one", probe.Matched, probe.Remote.Strata)
	}
	fixedBits := func(s ProbeSummary) int64 {
		e := transport.NewEncoder()
		encodeSummary(e, s)
		return e.Bits()
	}
	_, strataBits := b.Snapshot().StrataWire()
	st := alice.Stats()
	if st.MsgsAtoB != 1 || st.MsgsBtoA != 1 {
		t.Fatalf("frames %d out, %d back; want 1 each", st.MsgsAtoB, st.MsgsBtoA)
	}
	if want := fixedBits(probe.Local); st.BitsAtoB != want {
		t.Fatalf("prober sent %d bits, want %d (the fixed fields only)", st.BitsAtoB, want)
	}
	if want := fixedBits(resp.Served) + strataBits; st.BitsBtoA != want {
		t.Fatalf("responder sent %d bits, want %d (fixed fields + one %d-bit strata)", st.BitsBtoA, want, strataBits)
	}
}

// TestProbeVerdictsMatchSnapshots: across identical, k-apart and
// Sync-less pairs, a probe's Matched and Estimate are what the two
// snapshots give directly — Match on their summaries, and the local
// strata's estimate against the peer's — and the reply carried a
// strata exactly when both sides have Sync and the sets differ.
func TestProbeVerdictsMatchSnapshots(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 64, 3)
	emdP := emd.DefaultParams(space, 128, 2, 5)
	emdSet := func(pts metric.PointSet) *live.Set {
		ls, err := live.NewSet(live.Config{EMD: &emdP}, pts)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	type pair struct {
		name string
		a, b *live.Set
	}
	pairs := []pair{{"identical", newSyncSet(t, space, shared, 9), newSyncSet(t, space, shared, 9)}}
	for _, k := range []int{1, 5, 20} {
		pairs = append(pairs, pair{fmt.Sprintf("%d-apart", k),
			newSyncSet(t, space, shared, 9),
			newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, k, uint64(100+k))...), 9)})
	}
	pairs = append(pairs,
		pair{"no-sync identical", emdSet(shared), emdSet(shared)},
		pair{"no-sync 5-apart", emdSet(shared), emdSet(append(shared.Clone(), clusterPoints(space, 5, 7)...))})

	for _, p := range pairs {
		sa, sb := p.a.Snapshot(), p.b.Snapshot()
		wantMatch := summaryOf(sa).Match(summaryOf(sb))
		wantEst := -1
		switch {
		case sa.Strata == nil || sb.Strata == nil:
		case wantMatch:
			wantEst = 0
		default:
			est, err := sa.Strata.Estimate(sb.Strata)
			if err != nil {
				t.Fatal(err)
			}
			wantEst = est
		}
		probe := NewProbeInitiator(p.a)
		runPair(t, probe, NewProbeResponderFactory(p.b)())
		if probe.Matched != wantMatch || probe.Estimate != wantEst {
			t.Errorf("%s: probe matched %v, estimate %d; snapshots give %v, %d",
				p.name, probe.Matched, probe.Estimate, wantMatch, wantEst)
		}
		if carried, want := probe.Remote.Strata != nil, sa.Strata != nil && !wantMatch; carried != want {
			t.Errorf("%s: reply carried a strata: %v, want %v", p.name, carried, want)
		}
	}
}

func TestProbeDigestEnforcesSetConfig(t *testing.T) {
	space := metric.HammingCube(32)
	a := newSyncSet(t, space, clusterPoints(space, 10, 1), 9)
	b := newSyncSet(t, space, clusterPoints(space, 10, 1), 10) // different seed

	conn1, conn2 := duplex()
	defer conn1.Close()
	defer conn2.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(conn2, NewProbeResponderFactory(b)())
		errc <- err
	}()
	if _, err := RunInitiator(conn1, NewProbeInitiator(a)); err == nil {
		t.Fatal("probe across mismatched sync seeds accepted")
	}
	if err := <-errc; err == nil {
		t.Fatal("responder accepted mismatched digest")
	}
}

func testRepairConverges(t *testing.T, hint int) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 40, 1)
	a := newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, 7, 2)...), 9)
	b := newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, 5, 3)...), 9)

	init, err := NewRepairInitiator(a, hint)
	if err != nil {
		t.Fatal(err)
	}
	respFactory, err := NewRepairResponderFactory(b)
	if err != nil {
		t.Fatal(err)
	}
	resp := respFactory().(*RepairResponder)
	runPair(t, init, resp)

	if init.Sent != 7 || init.Received != 5 || init.Applied != 5 {
		t.Fatalf("initiator sent/recv/applied = %d/%d/%d, want 7/5/5",
			init.Sent, init.Received, init.Applied)
	}
	if resp.Sent != 5 || resp.Received != 7 || resp.Applied != 7 {
		t.Fatalf("responder sent/recv/applied = %d/%d/%d, want 5/7/7",
			resp.Sent, resp.Received, resp.Applied)
	}
	aIDs, bIDs := idsOf(a), idsOf(b)
	if len(aIDs) != 52 || len(bIDs) != 52 {
		t.Fatalf("post-repair sizes %d/%d, want 52/52", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("ID sets diverge at %d: %#x vs %#x", i, aIDs[i], bIDs[i])
		}
	}
	if a.IDFingerprint() != b.IDFingerprint() {
		t.Fatalf("fingerprints diverge: %#x vs %#x", a.IDFingerprint(), b.IDFingerprint())
	}
}

func TestRepairConvergesWithStrata(t *testing.T) { testRepairConverges(t, 0) }

func TestRepairConvergesWithHint(t *testing.T) { testRepairConverges(t, 12) }

// An absurd hint (beyond the IBLT sizing limit) must not be sent as-is:
// the initiator falls back to the strata round and the session still
// converges.
func TestRepairConvergesWithOversizedHint(t *testing.T) { testRepairConverges(t, iblt.MaxDiff+1) }

func TestRepairIdenticalSetsIsNoop(t *testing.T) {
	space := metric.HammingCube(32)
	shared := clusterPoints(space, 30, 4)
	a := newSyncSet(t, space, shared, 9)
	b := newSyncSet(t, space, shared, 9)
	epochA, epochB := a.Epoch(), b.Epoch()

	init, err := NewRepairInitiator(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewRepairResponderFactory(b)
	if err != nil {
		t.Fatal(err)
	}
	runPair(t, init, f())
	if init.Sent != 0 || init.Received != 0 || init.Applied != 0 {
		t.Fatalf("no-op repair moved points: %+v", init)
	}
	// MergeAbsent of nothing must not burn an epoch.
	if a.Epoch() != epochA || b.Epoch() != epochB {
		t.Fatalf("no-op repair bumped epochs: %d→%d, %d→%d", epochA, a.Epoch(), epochB, b.Epoch())
	}
}

func TestVerifyRepairPayload(t *testing.T) {
	const seed = 9
	pts := metric.PointSet{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	ids := make([]uint64, len(pts))
	for i, pt := range pts {
		ids[i] = live.PointID(seed, pt)
	}

	if err := verifyRepairPayload(seed, nil, nil); err != nil {
		t.Fatalf("empty payload rejected: %v", err)
	}
	if err := verifyRepairPayload(seed, ids, pts); err != nil {
		t.Fatalf("honest payload rejected: %v", err)
	}
	// A shorter list than requested is legitimate churn.
	if err := verifyRepairPayload(seed, ids, pts[:1]); err != nil {
		t.Fatalf("subset payload rejected: %v", err)
	}
	// One corrupted coordinate: the point no longer hashes to any
	// requested ID.
	bad := pts.Clone()
	bad[1][0]++
	err := verifyRepairPayload(seed, ids, bad)
	if err == nil {
		t.Fatal("corrupted point accepted")
	}
	if err.Mismatched != 1 || err.Total != 3 {
		t.Fatalf("verdict = %+v, want 1 of 3 mismatched", err)
	}
	// More points than requested is corruption even if each hashes to a
	// wanted ID.
	if err := verifyRepairPayload(seed, ids[:1], pts); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// The wrong derivation seed rejects everything: the IDs cannot match.
	if err := verifyRepairPayload(seed+1, ids, pts); err == nil {
		t.Fatal("payload under the wrong seed accepted")
	}
}

// TestRepairRejectsCorruptPayload is the end-to-end verify-before-merge
// check: a responder serving corrupted point payloads must be detected
// by the initiator, which returns *CorruptPayloadError, applies
// nothing, and burns no epoch.
func TestRepairRejectsCorruptPayload(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 40, 1)
	a := newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, 7, 2)...), 9)
	b := newSyncSet(t, space, append(shared.Clone(), clusterPoints(space, 5, 3)...), 9)
	fpA, epochA := a.IDFingerprint(), a.Epoch()

	init, err := NewRepairInitiator(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewCorruptingRepairResponderFactory(b)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := duplex()
	defer c1.Close()
	defer c2.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(c2, f())
		errc <- err
	}()
	_, err = RunInitiator(c1, init)
	<-errc // responder completed before the initiator's verdict; outcome irrelevant
	var cerr *CorruptPayloadError
	if !errors.As(err, &cerr) {
		t.Fatalf("initiator error = %v, want *CorruptPayloadError", err)
	}
	if cerr.Mismatched != 5 || cerr.Total != 5 {
		t.Fatalf("verdict = %+v, want all 5 points mismatched", cerr)
	}
	if init.Applied != 0 || init.Rejected != 5 {
		t.Fatalf("applied/rejected = %d/%d, want 0/5", init.Applied, init.Rejected)
	}
	if a.IDFingerprint() != fpA {
		t.Fatal("rejected batch still changed the local set")
	}
	if a.Epoch() != epochA {
		t.Fatalf("rejected batch burned an epoch: %d -> %d", epochA, a.Epoch())
	}
}

func TestRepairRequiresSyncState(t *testing.T) {
	space := metric.HammingCube(32)
	p := emd.DefaultParams(space, 16, 2, 5)
	ls, err := live.NewSet(live.Config{EMD: &p}, clusterPoints(space, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRepairInitiator(ls, 0); err == nil {
		t.Fatal("repair initiator accepted a set without Sync state")
	}
	if _, err := NewRepairResponderFactory(ls); err == nil {
		t.Fatal("repair responder accepted a set without Sync state")
	}
}

package netproto

import (
	"errors"
	"sort"
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

// TestProbeIdenticalSetsSkipsStrataCodec pins the identical-sets probe
// to a byte comparison: each side splices its snapshot's cached strata
// encoding and recognises the peer's equal bits without decoding them,
// so the remote estimator is the local one and a probe allocates far
// less than two 32-table strata decodes would. Diverged sets still
// decode, and their estimate is the one a full decode gives.
func TestProbeIdenticalSetsSkipsStrataCodec(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 64, 3)
	a := newSyncSet(t, space, shared, 9)
	b := newSyncSet(t, space, shared, 9)

	probe := NewProbeInitiator(a)
	runPair(t, probe, NewProbeResponderFactory(b)())
	if !probe.Matched || probe.Estimate != 0 {
		t.Fatalf("identical sets: matched %v, estimate %d; want true, 0", probe.Matched, probe.Estimate)
	}
	if probe.Remote.Strata != probe.Local.Strata {
		t.Fatal("identical sets: remote strata was decoded instead of recognised as the local one")
	}
	// A strata decode allocates a table per level, so even one of them
	// would exceed this bound; the pipe, frames and summaries take
	// about half of it.
	const maxAllocs = 2 * iblt.StrataLevels
	allocs := testing.AllocsPerRun(20, func() {
		runPair(t, NewProbeInitiator(a), NewProbeResponderFactory(b)())
	})
	if allocs > maxAllocs {
		t.Fatalf("identical-sets probe allocates %.0f times, want ≤ %d", allocs, maxAllocs)
	}

	for seed := uint64(10); seed < 15; seed++ {
		c := newSyncSet(t, space, shared, 9)
		for _, pt := range clusterPoints(space, int(seed), seed) {
			if err := c.Add(pt); err != nil {
				t.Fatal(err)
			}
		}
		probe := NewProbeInitiator(a)
		runPair(t, probe, NewProbeResponderFactory(c)())
		if probe.Matched || probe.Remote.Strata == probe.Local.Strata {
			t.Fatalf("seed %d: diverged sets matched or shared the local strata", seed)
		}
		e := transport.NewEncoder()
		c.Snapshot().Strata.Encode(e)
		data, _ := e.Pack()
		remote, err := iblt.DecodeStrata(transport.NewDecoder(data), 9)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.Snapshot().Strata.Estimate(remote)
		if err != nil {
			t.Fatal(err)
		}
		if probe.Estimate != want {
			t.Fatalf("seed %d: probe estimate %d, full decode gives %d", seed, probe.Estimate, want)
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
func TestRepairConvergesWithOversizedHint(t *testing.T) { testRepairConverges(t, repairMaxDiff+1) }

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

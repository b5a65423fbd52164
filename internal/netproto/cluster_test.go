package netproto

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// newProbe returns a probe initiator for the Sync set ls.
func newProbe(t *testing.T, ls *live.Set) *ProbeInitiator {
	t.Helper()
	probe, err := NewProbeInitiator(ls)
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// newProbeResponder returns a probe responder for the Sync set ls.
func newProbeResponder(t *testing.T, ls *live.Set) *ProbeResponder {
	t.Helper()
	f, err := NewProbeResponderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	return f().(*ProbeResponder)
}

// runPair drives an initiator/responder handler pair over a duplex pipe
// and fails the test if either side fails.
func runPair(t *testing.T, init, resp Handler) {
	t.Helper()
	initErr, respErr := pairErrors(init, resp)
	if initErr != nil {
		t.Fatalf("initiator: %v", initErr)
	}
	if respErr != nil {
		t.Fatalf("responder: %v", respErr)
	}
}

// pairErrors drives an initiator/responder handler pair over a duplex
// pipe and returns both sides' errors. Each side closes its end as soon
// as it returns, so a peer still waiting for a frame fails instead of
// blocking.
func pairErrors(init, resp Handler) (initErr, respErr error) {
	a, b := duplex()
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(b, resp)
		b.Close()
		errc <- err
	}()
	_, initErr = RunInitiator(a, init)
	a.Close()
	return initErr, <-errc
}

// failAfterRecv speaks its Handler's hello, then reads one frame and
// fails without answering.
type failAfterRecv struct {
	Handler
	err error
}

func (h failAfterRecv) Run(conn transport.Conn) error {
	if _, err := conn.Recv(); err != nil {
		return err
	}
	return h.err
}

// TestPairErrorsReturnsWhenResponderFails: a responder that fails after
// the initiator's last send closes its end, so the initiator waiting for
// the reply fails, and pairErrors returns both errors within seconds
// instead of hanging.
func TestPairErrorsReturnsWhenResponderFails(t *testing.T) {
	space := metric.HammingCube(64)
	probe := newProbe(t, newSyncSet(t, space, clusterPoints(space, 8, 1), 9))
	refused := errors.New("refused")
	resp := failAfterRecv{newProbeResponder(t, newSyncSet(t, space, clusterPoints(space, 8, 2), 9)), refused}
	done := make(chan [2]error, 1)
	go func() {
		initErr, respErr := pairErrors(probe, resp)
		done <- [2]error{initErr, respErr}
	}()
	select {
	case errs := <-done:
		if errs[0] == nil || !errors.Is(errs[1], refused) {
			t.Fatalf("initiator error %v, responder error %v; want a failed initiator and %v", errs[0], errs[1], refused)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pairErrors still blocked 5 s after the responder failed")
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

	probe := newProbe(t, a)
	runPair(t, probe, newProbeResponder(t, b))
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
	probe = newProbe(t, a)
	runPair(t, probe, newProbeResponder(t, b))
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
	probe := newProbe(t, a)
	errc := make(chan error, 1)
	go func() {
		_, err := RunResponder(cb, newProbeResponder(t, b))
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
	probe := newProbe(t, a)
	resp := newProbeResponder(t, b)
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

// TestProbeVerdictsMatchSnapshots: across identical and k-apart pairs,
// a probe's Matched and Estimate are what the two snapshots give
// directly — Match on their summaries, and the local strata's estimate
// against the peer's — and the reply carried a strata exactly when the
// sets differ.
func TestProbeVerdictsMatchSnapshots(t *testing.T) {
	space := metric.HammingCube(64)
	shared := clusterPoints(space, 64, 3)
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
	for _, p := range pairs {
		sa, sb := p.a.Snapshot(), p.b.Snapshot()
		wantMatch := summaryOf(sa).Match(summaryOf(sb))
		wantEst := 0
		if !wantMatch {
			est, err := sa.Strata().Estimate(sb.Strata())
			if err != nil {
				t.Fatal(err)
			}
			wantEst = est
		}
		probe := newProbe(t, p.a)
		runPair(t, probe, newProbeResponder(t, p.b))
		if probe.Matched != wantMatch || probe.Estimate != wantEst {
			t.Errorf("%s: probe matched %v, estimate %d; snapshots give %v, %d",
				p.name, probe.Matched, probe.Estimate, wantMatch, wantEst)
		}
		if carried := probe.Remote.Strata != nil; carried == wantMatch {
			t.Errorf("%s: reply carried a strata: %v, want %v", p.name, carried, !wantMatch)
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
		_, err := RunResponder(conn2, newProbeResponder(t, b))
		errc <- err
	}()
	if _, err := RunInitiator(conn1, newProbe(t, a)); err == nil {
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

func TestRepairConvergesWithHint(t *testing.T) { testRepairConverges(t, 12) }

// TestRepairClampsHint: the initiator clamps its hint into
// [1, iblt.MaxDiff], the range a responder accepts. A hint below it
// becomes 1, whose first table stalls on 12 differences and doubles
// until the session converges. A hint above it becomes MaxDiff, whose
// first table the responder refuses before building it; nothing merges.
func TestRepairClampsHint(t *testing.T) {
	space := metric.HammingCube(32)
	ls := newSyncSet(t, space, clusterPoints(space, 4, 1), 9)
	for hint, want := range map[int]int{-5: 1, 0: 1, 1: 1, iblt.MaxDiff: iblt.MaxDiff, iblt.MaxDiff + 1: iblt.MaxDiff} {
		init, err := NewRepairInitiator(ls, hint)
		if err != nil {
			t.Fatal(err)
		}
		if init.Hint != want {
			t.Errorf("hint %d clamped to %d, want %d", hint, init.Hint, want)
		}
	}
	testRepairConverges(t, 0)

	a := newSyncSet(t, space, clusterPoints(space, 10, 2), 9)
	b := newSyncSet(t, space, clusterPoints(space, 10, 3), 9)
	fpA, fpB := a.IDFingerprint(), b.IDFingerprint()
	init, err := NewRepairInitiator(a, iblt.MaxDiff+1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewRepairResponderFactory(b)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := transport.NewPipe()
	errc := make(chan error, 1)
	go func() {
		errc <- f().Run(bob)
		bob.Close()
	}()
	initErr := init.Run(alice)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("responder err = %v, want the IBLT bound limit", err)
	}
	if initErr == nil {
		t.Fatal("initiator succeeded against a refusing responder")
	}
	if a.IDFingerprint() != fpA || b.IDFingerprint() != fpB {
		t.Fatal("a refused repair changed a set")
	}
}

// TestRepairResponderRefusesHintOutOfRange: an opening hint of 0 (the
// retired "strata follows" marker) or above iblt.MaxDiff is refused
// before any table is built.
func TestRepairResponderRefusesHintOutOfRange(t *testing.T) {
	space := metric.HammingCube(32)
	ls := newSyncSet(t, space, clusterPoints(space, 4, 1), 9)
	f, err := NewRepairResponderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []uint64{0, iblt.MaxDiff + 1} {
		peer, conn := transport.NewPipe()
		e := transport.NewEncoder()
		e.WriteUvarint(hint)
		if err := peer.Send(e); err != nil {
			t.Fatal(err)
		}
		if err := f().Run(conn); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("hint %d: err = %v, want a range refusal", hint, err)
		}
		peer.Close()
	}
}

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

// TestReadPointListRejectsWideCoordinate: a repair point list whose
// coordinate does not fit an int32 is an error, as in the journal's
// point reader, not a point silently narrowed to another one.
func TestReadPointListRejectsWideCoordinate(t *testing.T) {
	e := transport.NewEncoder()
	e.WriteUvarint(1) // one point
	e.WriteUvarint(1) // of dimension 1
	e.WriteVarint(1<<32 + 5)
	frame, _ := e.Pack()
	if pts, err := readPointList(transport.NewDecoder(frame)); err == nil {
		t.Fatalf("coordinate 2^32+5 decoded as %v, want an error", pts)
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

// TestProbeRequiresSyncState: like repair, probe compares point IDs, so
// both ends refuse a set without Sync state.
func TestProbeRequiresSyncState(t *testing.T) {
	space := metric.HammingCube(32)
	p := emd.DefaultParams(space, 16, 2, 5)
	ls, err := live.NewSet(live.Config{EMD: &p}, clusterPoints(space, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProbeInitiator(ls); err == nil {
		t.Fatal("probe initiator accepted a set without Sync state")
	}
	if _, err := NewProbeResponderFactory(ls); err == nil {
		t.Fatal("probe responder accepted a set without Sync state")
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

// TestRepairServesTablePeeledPastItsBound: a table sized for 10
// differences has 39 cells and can peel more than 10 keys. An honest
// initiator that peels one and asks for the 15 points behind them is
// served: each peeled key empties a cell for good, so the responder
// bounds the ack by the table's cells, not by its difference bound.
func TestRepairServesTablePeeledPastItsBound(t *testing.T) {
	space := metric.HammingCube(32)
	a := newSyncSet(t, space, clusterPoints(space, 4, 77), 99)
	b := newSyncSet(t, space, clusterPoints(space, 15, 2), 99)
	init, err := NewRepairInitiator(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewRepairResponderFactory(b)
	if err != nil {
		t.Fatal(err)
	}
	if pin := runHashed(t, init, f()); pin.bobFrames != 2 {
		t.Fatalf("responder sent %d frames, want 2: the first table peels", pin.bobFrames)
	}
	if init.Received != 15 || a.IDFingerprint() != b.IDFingerprint() {
		t.Fatalf("received %d points, want 15; converged %v", init.Received, a.IDFingerprint() == b.IDFingerprint())
	}
}

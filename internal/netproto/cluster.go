package netproto

import (
	"fmt"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/transport"
)

// Cluster anti-entropy protocols. Both bind to a live.Set that
// maintains Sync state on each end and exist for the mesh in
// internal/cluster, though they are ordinary registered protocols any
// peer may speak. Their constructors refuse a set without Sync: both
// compare point IDs, which only Sync state derives.
//
// Probe (ProtoProbe) is the cheap divergence check behind
// power-of-two-choices peer selection. The initiator sends its set's
// epoch, distinct-point count and order-independent ID fingerprint; the
// peer answers with the same fields for its own snapshot, and appends
// its strata estimator only when the two summaries do not match
// (Match). Both sides evaluate Match on the same fields, so each knows
// whether the strata follows. A matched probe, the common case, moves a
// few bytes each way and builds no strata on either side; a mismatched
// one carries one strata, from peer to initiator, which the initiator
// estimates against its own (each snapshot builds its estimator from its
// IDs on first use) — without shipping a single point. This reply is the
// one place a strata crosses the wire.
//
//	initiator → peer: summary
//	peer → initiator: summary [strata, when not matched]
//
// Repair (ProtoRepair) converges the sets exactly: an exact-ID
// difference exchange (IBLTs sized from the probe's estimate, doubled
// on a stall, below), then a point-payload exchange, after which both
// sides hold the union of distinct points (add-wins anti-entropy merge;
// MergeAbsent makes application idempotent).
//
//	initiator → peer: uvarint hint in [1, iblt.MaxDiff]
//	                  the difference exchange, salt repairSalt
//	initiator → peer: ack: true, wanted IDs, points for its own IDs
//	peer → initiator: points for the wanted IDs
const (
	// ProtoProbe is the divergence-estimate exchange.
	ProtoProbe Proto = 6
	// ProtoRepair is exact set convergence (ID difference + point
	// payloads).
	ProtoRepair Proto = 7
)

// meshWireVersion names the frame layouts of probe and repair in their
// hello digest. Layout 3 is the one above: a summary of epoch, distinct
// count and ID fingerprint, and a repair that always opens with a hint.
// A peer on an older layout computes another digest and fails the hello
// with StatusDigestMismatch, so no layout needs a fallback.
const meshWireVersion = 3

// DigestLiveSet is the hello digest of probe and repair: the mesh wire
// version and the wire-relevant configuration of a live set — which
// structures it maintains and their parameter digests. Two nodes
// hosting one named set must configure it identically for fingerprints
// and IDs to be comparable.
func DigestLiveSet(ls *live.Set) uint64 {
	m := hashx.MixerFromSeed(0x9306e)
	h := m.Hash(0x1)
	if p, ok := ls.EMDParams(); ok {
		h = m.Hash(h ^ DigestEMD(p))
	}
	if p, ok := ls.GapParams(); ok {
		h = m.Hash(h ^ DigestGap(p))
	}
	if sc, ok := ls.SyncConfig(); ok {
		h = m.Hash(h ^ sc.Seed)
		h = m.Hash(h ^ iblt.StrataCells)
	}
	return m.Hash(h ^ meshWireVersion)
}

// needSync refuses a live set without Sync state for proto.
func needSync(ls *live.Set, proto Proto) error {
	if _, ok := ls.SyncConfig(); !ok {
		return fmt.Errorf("netproto: %v needs a live set with Sync state", proto)
	}
	return nil
}

// ProbeSummary is one side's divergence summary.
type ProbeSummary struct {
	// Epoch is the set's local generation counter. Epochs are per-node
	// (not comparable across nodes); a peer that remembers the epoch it
	// last saw from this node can tell "nothing changed here" cheaply.
	Epoch uint64
	// Distinct is the distinct-point count.
	Distinct int
	// IDFingerprint is live.Snapshot.IDFingerprint.
	IDFingerprint uint64
	// Strata is the peer's ID-difference estimator, decoded from a reply
	// that carried one (the summaries did not match); nil otherwise, and
	// always nil in a local summary.
	Strata *iblt.Strata
}

func summaryOf(snap *live.Snapshot) ProbeSummary {
	return ProbeSummary{
		Epoch:         snap.Epoch,
		Distinct:      len(snap.IDs),
		IDFingerprint: snap.IDFingerprint,
	}
}

// encodeSummary writes the summary's fixed fields. A reply that carries
// the strata appends its snapshot's cached encoding
// (live.Snapshot.StrataWire) after them.
func encodeSummary(e *transport.Encoder, s ProbeSummary) {
	e.WriteUvarint(s.Epoch)
	e.WriteUvarint(uint64(s.Distinct))
	e.WriteUint64(s.IDFingerprint)
}

// decodeSummary reads the fixed fields encodeSummary wrote.
func decodeSummary(d *transport.Decoder) (ProbeSummary, error) {
	var s ProbeSummary
	var err error
	if s.Epoch, err = d.ReadUvarint(); err != nil {
		return s, err
	}
	distinct, err := d.ReadUvarint()
	if err != nil {
		return s, err
	}
	if distinct > uint64(maxFrame) {
		return s, fmt.Errorf("netproto: implausible distinct count %d in probe", distinct)
	}
	s.Distinct = int(distinct)
	s.IDFingerprint, err = d.ReadUint64()
	return s, err
}

// Match reports whether the summaries describe provably-converged sets:
// equal ID fingerprints and distinct counts. It reads only the fixed
// fields, and is symmetric, so both ends of a probe reach the same
// verdict.
func (s ProbeSummary) Match(o ProbeSummary) bool {
	return s.IDFingerprint == o.IDFingerprint && s.Distinct == o.Distinct
}

// ProbeInitiator dials one probe session for a live set; after Run,
// Local and Remote hold the two summaries, Matched whether the sets are
// fingerprint-identical, and Estimate the ID difference: 0 on a match,
// the strata estimate otherwise.
type ProbeInitiator struct {
	set *live.Set

	Local    ProbeSummary
	Remote   ProbeSummary
	Estimate int
	Matched  bool
}

// NewProbeInitiator binds the probing side to its live set, which must
// maintain Sync state.
func NewProbeInitiator(ls *live.Set) (*ProbeInitiator, error) {
	if err := needSync(ls, ProtoProbe); err != nil {
		return nil, err
	}
	return &ProbeInitiator{set: ls}, nil
}

// Proto implements Handler.
func (h *ProbeInitiator) Proto() Proto { return ProtoProbe }

// Role implements Handler.
func (h *ProbeInitiator) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *ProbeInitiator) Digest() uint64 { return DigestLiveSet(h.set) }

// Run implements Handler.
func (h *ProbeInitiator) Run(conn transport.Conn) error {
	snap := h.set.Snapshot()
	h.Local = summaryOf(snap)
	e := transport.NewEncoder()
	encodeSummary(e, h.Local)
	if err := conn.Send(e); err != nil {
		return err
	}
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	sc, _ := h.set.SyncConfig()
	if h.Remote, err = readReply(d, h.Local, sc.Seed); err != nil {
		return err
	}
	if h.Matched = h.Local.Match(h.Remote); h.Matched {
		return nil
	}
	if h.Estimate, err = snap.Strata().Estimate(h.Remote.Strata); err != nil {
		return fmt.Errorf("netproto: probe estimate: %w", err)
	}
	return nil
}

// readReply reads a responder's answer to local: its summary, then its
// strata when the summaries do not match.
func readReply(d *transport.Decoder, local ProbeSummary, strataSeed uint64) (ProbeSummary, error) {
	remote, err := decodeSummary(d)
	if err == nil && !local.Match(remote) {
		remote.Strata, err = iblt.DecodeStrata(d, strataSeed)
	}
	return remote, err
}

// ProbeResponder answers probe sessions from a live set's snapshot.
type ProbeResponder struct {
	set *live.Set

	// Served is the summary shipped to the prober.
	Served ProbeSummary
}

// NewProbeResponderFactory returns a factory, for a server's Resolver,
// answering probes for the set; the set must maintain Sync state.
func NewProbeResponderFactory(ls *live.Set) (func() Handler, error) {
	if err := needSync(ls, ProtoProbe); err != nil {
		return nil, err
	}
	return func() Handler { return &ProbeResponder{set: ls} }, nil
}

// Proto implements Handler.
func (h *ProbeResponder) Proto() Proto { return ProtoProbe }

// Role implements Handler.
func (h *ProbeResponder) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *ProbeResponder) Digest() uint64 { return DigestLiveSet(h.set) }

// Run implements Handler: read the prober's summary and answer with our
// own, followed by our snapshot's strata bits when the summaries do not
// match.
func (h *ProbeResponder) Run(conn transport.Conn) error {
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	req, err := decodeSummary(d)
	if err != nil {
		return err
	}
	snap := h.set.Snapshot()
	h.Served = summaryOf(snap)
	e := transport.NewEncoder()
	encodeSummary(e, h.Served)
	if !h.Served.Match(req) {
		e.WriteBitString(snap.StrataWire())
	}
	return conn.Send(e)
}

// ---------------------------------------------------------------------------
// Repair: exact convergence.

// CorruptPayloadError reports a repair point payload that failed
// verify-before-merge: the peer shipped points that do not hash to the
// IDs the IBLT decode asked for (or more points than were asked for at
// all). The whole batch is rejected — nothing is merged, no epoch is
// burned — and the cluster layer records a corruption verdict against
// the source peer in its health ledger.
type CorruptPayloadError struct {
	// Mismatched is how many received points failed the ID check (or,
	// for an oversized batch, the surplus count).
	Mismatched int
	// Total is the size of the rejected batch.
	Total int
}

// Error implements error.
func (e *CorruptPayloadError) Error() string {
	return fmt.Sprintf("netproto: corrupt repair payload: %d of %d points do not hash to a requested ID", e.Mismatched, e.Total)
}

// verifyRepairPayload is the verify-before-merge rule: every received
// point's ID fingerprint is re-derived locally (live.PointID with the
// set's sync seed) and must be one of the IDs this side asked for. An
// honest responder can only ship points for the requested IDs — a
// shorter list is legitimate churn, but a point hashing elsewhere, or a
// batch larger than the request, proves the payload was not produced by
// hashing the peer's real points and must not reach MergeAbsent.
func verifyRepairPayload(seed uint64, wanted []uint64, pts metric.PointSet) *CorruptPayloadError {
	if len(pts) == 0 {
		return nil
	}
	if len(pts) > len(wanted) {
		return &CorruptPayloadError{Mismatched: len(pts) - len(wanted), Total: len(pts)}
	}
	want := make(map[uint64]struct{}, len(wanted))
	for _, id := range wanted {
		want[id] = struct{}{}
	}
	bad := 0
	for _, pt := range pts {
		if _, ok := want[live.PointID(seed, pt)]; !ok {
			bad++
		}
	}
	if bad > 0 {
		return &CorruptPayloadError{Mismatched: bad, Total: len(pts)}
	}
	return nil
}

// writePointList writes a uvarint count, then each point in
// metric.Point's self-describing encoding.
func writePointList(e *transport.Encoder, pts metric.PointSet) {
	e.WriteUvarint(uint64(len(pts)))
	for _, pt := range pts {
		pt.Encode(e)
	}
}

// readPointList reads what writePointList wrote, guarding the count here
// and each point's dimension in metric.DecodePoint.
func readPointList(d *transport.Decoder) (metric.PointSet, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxFrame/2) {
		return nil, fmt.Errorf("netproto: implausible point count %d in repair", n)
	}
	// Preallocation is capped: the count is peer-supplied, and a tiny
	// frame claiming 2^27 points must not allocate gigabytes of slice
	// headers before the first coordinate read fails.
	preallocate := n
	if preallocate > 1<<16 {
		preallocate = 1 << 16
	}
	out := make(metric.PointSet, 0, preallocate)
	for i := uint64(0); i < n; i++ {
		pt, err := metric.DecodePoint(d)
		if err != nil {
			return nil, fmt.Errorf("netproto: repair point %d: %w", i, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// writeIDList writes a uvarint count, then each ID as 64 bits.
func writeIDList(e *transport.Encoder, ids []uint64) {
	e.WriteUvarint(uint64(len(ids)))
	for _, id := range ids {
		e.WriteUint64(id)
	}
}

// readIDList reads what writeIDList wrote, refusing a count the rest of
// the frame cannot back.
func readIDList(d *transport.Decoder) ([]uint64, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxFrame/8) {
		return nil, fmt.Errorf("netproto: implausible ID count %d", n)
	}
	// Each ID costs exactly 8 bytes on the wire, so a count the rest of
	// the frame cannot back is rejected before the slice is allocated —
	// a 5-byte hostile frame must not reserve 256 MB.
	if n > uint64(d.Remaining())/8 {
		return nil, fmt.Errorf("netproto: ID count %d exceeds remaining frame (%d bytes)", n, d.Remaining())
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = d.ReadUint64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The exact-ID difference exchange, between repair's opening and its
// ack:
//
//	responder → initiator: uvarint attempt, IBLT of responder's IDs ─┐ repeat on
//	initiator → responder: false                                    ─┘ a stall
//	initiator → responder: true, then the ack
//
// The responder sizes its first table for 2·estimate+8 differences and
// doubles the bound on every stall, at most maxRetries times; attempt
// i's table is seeded seed+repairSalt+i·0x9e37, so each retry draws a
// fresh hypergraph. The initiator deletes its own IDs from the table
// and peels it into the IDs only the peer holds and those only it
// holds.

const (
	// repairSalt offsets the table seeds from the set's sync seed.
	repairSalt = 0x4e9a

	// maxRetries bounds the IBLT doublings of the difference exchange.
	maxRetries = 6
)

// diffSeed is the table seed of one attempt.
func diffSeed(seed uint64, attempt int) uint64 {
	return seed + repairSalt + uint64(attempt)*0x9e37
}

// diffInitiate answers the responder's tables with ids until one peels,
// and returns the IDs only the peer holds and those only ids holds. It
// sends nothing for the table that peeled: the caller's ack, which
// begins with true, answers it.
func diffInitiate(conn transport.Conn, seed uint64, ids []uint64) (peerOnly, mineOnly []uint64, err error) {
	for attempt := 0; ; attempt++ {
		d, err := conn.Recv()
		if err != nil {
			return nil, nil, err
		}
		if _, err := d.ReadUvarint(); err != nil {
			return nil, nil, err
		}
		tbl, err := iblt.DecodeFrom(d, diffSeed(seed, attempt))
		if err != nil {
			return nil, nil, err
		}
		for _, id := range ids {
			tbl.Delete(id)
		}
		added, removed, decErr := tbl.Decode()
		if decErr == nil {
			return added, removed, nil
		}
		e := transport.NewEncoder()
		e.WriteBool(false)
		if err := conn.Send(e); err != nil {
			return nil, nil, err
		}
		if attempt >= maxRetries {
			return nil, nil, fmt.Errorf("netproto: ID difference failed after %d attempts", attempt+1)
		}
	}
}

// diffRespond serves tables of ids, the first sized from the difference
// estimate est, until the initiator peels one. It returns the ack frame
// positioned after its true, and the cell count of the table that
// peeled: each peeled key empties a cell for good, so an honest ack
// names no more IDs than that, and the peel itself stops at that many
// (package peel), so no decode runs past it either. A difference bound
// above iblt.MaxDiff is refused before its table is built.
func diffRespond(conn transport.Conn, seed uint64, ids []uint64, est int) (ack *transport.Decoder, cells int, err error) {
	diffBound := est*2 + 8
	for attempt := 0; ; attempt++ {
		if diffBound > iblt.MaxDiff {
			return nil, 0, fmt.Errorf("netproto: IBLT bound %d exceeds limit %d", diffBound, iblt.MaxDiff)
		}
		tbl := iblt.NewFromKeys(iblt.CellsForDiff(diffBound, 3), 3, diffSeed(seed, attempt), ids)
		e := transport.NewEncoder()
		e.WriteUvarint(uint64(attempt))
		tbl.Encode(e)
		if err := conn.Send(e); err != nil {
			return nil, 0, err
		}
		d, err := conn.Recv()
		if err != nil {
			return nil, 0, err
		}
		ok, err := d.ReadBool()
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return d, tbl.Cells(), nil
		}
		if attempt >= maxRetries {
			return nil, 0, fmt.Errorf("netproto: ID difference failed after %d attempts", attempt+1)
		}
		diffBound *= 2
	}
}

// RepairInitiator drives one repair session for a live set. Hint is the
// difference estimate the responder sizes its first table from (a
// probe's). After Run both sides hold the union of their distinct
// points; Sent/Received/Applied count the point payloads.
type RepairInitiator struct {
	set  *live.Set
	Hint int

	// Sent is how many points this side shipped to the peer.
	Sent int
	// Received is how many points the peer shipped back.
	Received int
	// Applied is how many received points were actually new.
	Applied int
	// Rejected is how many received points were refused by
	// verify-before-merge (all of Received, when nonzero: a corrupt
	// batch is rejected whole).
	Rejected int
}

// NewRepairInitiator binds the initiating side to its live set, which
// must maintain Sync state, with the hint clamped into
// [1, iblt.MaxDiff]: the range a responder accepts.
func NewRepairInitiator(ls *live.Set, hint int) (*RepairInitiator, error) {
	if err := needSync(ls, ProtoRepair); err != nil {
		return nil, err
	}
	return &RepairInitiator{set: ls, Hint: min(max(hint, 1), iblt.MaxDiff)}, nil
}

// Proto implements Handler.
func (h *RepairInitiator) Proto() Proto { return ProtoRepair }

// Role implements Handler.
func (h *RepairInitiator) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *RepairInitiator) Digest() uint64 { return DigestLiveSet(h.set) }

// Run implements Handler.
func (h *RepairInitiator) Run(conn transport.Conn) error {
	sc, _ := h.set.SyncConfig()
	snap := h.set.Snapshot()
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(h.Hint))
	if err := conn.Send(e); err != nil {
		return err
	}
	peerOnly, mineOnly, err := diffInitiate(conn, sc.Seed, snap.IDs)
	if err != nil {
		return err
	}
	// Ack frame: the peer-only IDs whose points we want, plus the points
	// for our exclusive IDs (the peer cannot name what it has never
	// seen).
	pts, _ := h.set.PointsForIDs(mineOnly)
	ack := transport.NewEncoder()
	ack.WriteBool(true)
	writeIDList(ack, peerOnly)
	writePointList(ack, pts)
	if err := conn.Send(ack); err != nil {
		return err
	}
	h.Sent = len(pts)
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	theirPts, err := readPointList(d)
	if err != nil {
		return err
	}
	h.Received = len(theirPts)
	if cerr := verifyRepairPayload(sc.Seed, peerOnly, theirPts); cerr != nil {
		h.Rejected = len(theirPts)
		return cerr
	}
	applied, err := h.set.MergeAbsent(theirPts)
	if err != nil {
		return fmt.Errorf("netproto: repair merge: %w", err)
	}
	h.Applied = applied
	return nil
}

// RepairResponder answers repair sessions for a live set.
type RepairResponder struct {
	set *live.Set

	// corrupt, when set, rewrites the outgoing point payload just
	// before it is encoded. It exists for fault injection only (a
	// byzantine responder in simulation); production responders leave
	// it nil.
	corrupt func(metric.PointSet) metric.PointSet

	// Sent / Received / Applied mirror the initiator's counters.
	Sent     int
	Received int
	Applied  int
}

// NewRepairResponderFactory returns a factory, for a server's Resolver,
// answering repairs for the set; the set must maintain Sync state.
func NewRepairResponderFactory(ls *live.Set) (func() Handler, error) {
	if err := needSync(ls, ProtoRepair); err != nil {
		return nil, err
	}
	return func() Handler { return &RepairResponder{set: ls} }, nil
}

// NewCorruptingRepairResponderFactory returns a repair responder whose
// outgoing point payloads are deterministically corrupted: every point
// has its first coordinate incremented, so it no longer hashes to the
// ID the initiator asked for. This models a byzantine peer (bit-flipping
// disk, hostile build) for simulation scenarios; verify-before-merge on
// the initiator must reject every batch it serves. Not for production.
func NewCorruptingRepairResponderFactory(ls *live.Set) (func() Handler, error) {
	if err := needSync(ls, ProtoRepair); err != nil {
		return nil, err
	}
	corrupt := func(pts metric.PointSet) metric.PointSet {
		// PointsForIDs returns clones, so in-place mutation is safe.
		for _, pt := range pts {
			if len(pt) > 0 {
				pt[0]++
			}
		}
		return pts
	}
	return func() Handler { return &RepairResponder{set: ls, corrupt: corrupt} }, nil
}

// Proto implements Handler.
func (h *RepairResponder) Proto() Proto { return ProtoRepair }

// Role implements Handler.
func (h *RepairResponder) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *RepairResponder) Digest() uint64 { return DigestLiveSet(h.set) }

// Run implements Handler.
func (h *RepairResponder) Run(conn transport.Conn) error {
	sc, _ := h.set.SyncConfig()
	snap := h.set.Snapshot()
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	hint, err := d.ReadUvarint()
	if err != nil {
		return err
	}
	if hint == 0 || hint > iblt.MaxDiff {
		return fmt.Errorf("netproto: repair hint %d outside [1, %d]", hint, iblt.MaxDiff)
	}
	ack, cells, err := diffRespond(conn, sc.Seed, snap.IDs, int(hint))
	if err != nil {
		return err
	}
	wanted, err := readIDList(ack)
	if err != nil {
		return err
	}
	// The IBLT we shipped can decode at most cells IDs, so an honest
	// initiator can never ask for more; a longer list is a hostile
	// allocation probe and is refused before PointsForIDs clones a
	// single point.
	if len(wanted) > cells {
		return fmt.Errorf("netproto: repair wanted-ID count %d exceeds the %d-cell table", len(wanted), cells)
	}
	theirPts, err := readPointList(ack)
	if err != nil {
		return err
	}
	h.Received = len(theirPts)
	// Ship the points behind our exclusive IDs. Churn since the snapshot
	// may have dropped some; the initiator's merge is a union, so a
	// shorter list is safe.
	pts, _ := h.set.PointsForIDs(wanted)
	if h.corrupt != nil {
		pts = h.corrupt(pts)
	}
	e := transport.NewEncoder()
	writePointList(e, pts)
	if err := conn.Send(e); err != nil {
		return err
	}
	// The initiator is waiting for these points; it should not also
	// wait for the merge.
	if err := Flush(conn); err != nil {
		return err
	}
	h.Sent = len(pts)
	applied, err := h.set.MergeAbsent(theirPts)
	if err != nil {
		return fmt.Errorf("netproto: repair merge: %w", err)
	}
	h.Applied = applied
	return nil
}

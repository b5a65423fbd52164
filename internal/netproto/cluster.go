package netproto

import (
	"fmt"
	"math"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/transport"
)

// Cluster anti-entropy protocols. Both bind to a live.Set on each end
// and exist for the mesh in internal/cluster, though they are ordinary
// registered protocols any peer may speak.
//
// Probe (ProtoProbe) is the cheap divergence check behind
// power-of-two-choices peer selection. The initiator sends its set's
// epoch, distinct-point count, order-independent ID fingerprint, EMD
// sketch fingerprint and a has-Sync flag; the peer answers with the
// same fields for its own snapshot, and appends its strata estimator
// only when the two summaries do not match (Match) and it maintains
// one. Both sides evaluate Match on the same fields, so each knows
// whether the strata follows. A matched probe, the common case, moves
// a few dozen bytes each way and does no strata codec work; a
// mismatched one carries one strata, from peer to initiator, which the
// initiator estimates against its own — without shipping a single
// point.
//
//	initiator → peer: summary
//	peer → initiator: summary [strata, when Sync and not matched]
//
// Repair (ProtoRepair) converges the sets exactly: an exact-ID
// difference exchange (strata-sized IBLTs, doubled on a stall, below),
// then a point-payload exchange, after which both sides hold the union
// of distinct points (add-wins anti-entropy merge; MergeAbsent makes
// application idempotent). A probe's estimate can be passed as a hint,
// skipping the strata estimator entirely — power-of-two-choices probing
// already paid for it.
//
//	initiator → peer: uvarint hint (0 = none; strata follows when 0)
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

// DigestLiveSet folds the wire-relevant configuration of a live set:
// which structures it maintains and their parameter digests. Two nodes
// hosting one named set must configure it identically for probe
// fingerprints and repair IDs to be comparable; this digest is what
// repair's session header checks, and DigestProbe extends it for probe.
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
	return h
}

// probeWireVersion names the probe's frame layout in its hello digest:
// layout 2 is the fingerprint-first one above. Layout 1, which carried
// a strata estimator both ways, has no version of its own; a peer
// speaking it computes a plain DigestLiveSet and fails the hello.
const probeWireVersion = 2

// DigestProbe is the probe's hello digest: DigestLiveSet with the probe
// wire version folded in, so peers on different probe layouts fail the
// hello with StatusDigestMismatch instead of misreading each other's
// frames. Repair keeps DigestLiveSet.
func DigestProbe(ls *live.Set) uint64 {
	return hashx.MixerFromSeed(0x9306e).Hash(DigestLiveSet(ls) ^ probeWireVersion)
}

// ProbeSummary is one side's divergence summary.
type ProbeSummary struct {
	// Epoch is the set's local generation counter. Epochs are per-node
	// (not comparable across nodes); a peer that remembers the epoch it
	// last saw from this node can tell "nothing changed here" cheaply.
	Epoch uint64
	// Distinct is the distinct-point count.
	Distinct int
	// IDFingerprint is live.Snapshot.IDFingerprint (0 when Sync is off).
	IDFingerprint uint64
	// EMDFingerprint hashes the full EMD message. It is 0 when EMD is
	// off, and on a set with Sync, whose snapshot encodes no EMD message
	// for a probe: Match compares ID fingerprints whenever both sides
	// have Sync, and a side without it never matches one with it.
	EMDFingerprint uint64
	// Sync reports whether the set maintains Sync state: an ID
	// fingerprint and a strata estimator.
	Sync bool
	// Strata is the ID-difference estimator: a local summary's own
	// (nil when Sync is off), and a peer's only when its reply carried
	// one (Sync, and the summaries did not match).
	Strata *iblt.Strata
}

func summaryOf(snap *live.Snapshot) ProbeSummary {
	return ProbeSummary{
		Epoch:          snap.Epoch,
		Distinct:       len(snap.IDs),
		IDFingerprint:  snap.IDFingerprint,
		EMDFingerprint: snap.EMDFingerprint,
		Sync:           snap.Strata != nil,
		Strata:         snap.Strata,
	}
}

// encodeSummary writes the summary's fixed fields. A reply that carries
// the strata appends its snapshot's cached encoding
// (live.Snapshot.StrataWire) after them.
func encodeSummary(e *transport.Encoder, s ProbeSummary) {
	e.WriteUvarint(s.Epoch)
	e.WriteUvarint(uint64(s.Distinct))
	e.WriteUint64(s.IDFingerprint)
	e.WriteUint64(s.EMDFingerprint)
	e.WriteBool(s.Sync)
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
	if s.IDFingerprint, err = d.ReadUint64(); err != nil {
		return s, err
	}
	if s.EMDFingerprint, err = d.ReadUint64(); err != nil {
		return s, err
	}
	s.Sync, err = d.ReadBool()
	return s, err
}

// Match reports whether the summaries describe provably-converged sets:
// equal ID fingerprints and counts when both maintain Sync state, equal
// EMD fingerprints otherwise. Summaries with no comparable structure
// never match. It reads only the fixed fields, and is symmetric, so
// both ends of a probe reach the same verdict.
func (s ProbeSummary) Match(o ProbeSummary) bool {
	if s.Sync && o.Sync {
		return s.IDFingerprint == o.IDFingerprint && s.Distinct == o.Distinct
	}
	if s.EMDFingerprint != 0 && o.EMDFingerprint != 0 {
		return s.EMDFingerprint == o.EMDFingerprint
	}
	return false
}

// ProbeInitiator dials one probe session for a live set; after Run,
// Local and Remote hold the two summaries, Matched whether the sets are
// fingerprint-identical, and Estimate the ID difference: 0 on a match
// with Sync, the strata estimate on a mismatch, and -1 when either side
// lacks Sync state.
type ProbeInitiator struct {
	set *live.Set

	Local    ProbeSummary
	Remote   ProbeSummary
	Estimate int
	Matched  bool
}

// NewProbeInitiator binds the probing side to its live set.
func NewProbeInitiator(ls *live.Set) *ProbeInitiator { return &ProbeInitiator{set: ls} }

// Proto implements Handler.
func (h *ProbeInitiator) Proto() Proto { return ProtoProbe }

// Role implements Handler.
func (h *ProbeInitiator) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *ProbeInitiator) Digest() uint64 { return DigestProbe(h.set) }

// Run implements Handler.
func (h *ProbeInitiator) Run(conn transport.Conn) error {
	h.Local = summaryOf(h.set.Snapshot())
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
	h.Matched = h.Local.Match(h.Remote)
	switch {
	case h.Remote.Strata != nil:
		if h.Estimate, err = h.Local.Strata.Estimate(h.Remote.Strata); err != nil {
			return fmt.Errorf("netproto: probe estimate: %w", err)
		}
	case h.Local.Sync && h.Remote.Sync:
		h.Estimate = 0
	default:
		h.Estimate = -1
	}
	return nil
}

// readReply reads a responder's answer to local: its summary, then its
// strata when both sides have Sync and the summaries do not match.
func readReply(d *transport.Decoder, local ProbeSummary, strataSeed uint64) (ProbeSummary, error) {
	remote, err := decodeSummary(d)
	if err == nil && local.Sync && remote.Sync && !local.Match(remote) {
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
// answering probes for the set.
func NewProbeResponderFactory(ls *live.Set) func() Handler {
	return func() Handler { return &ProbeResponder{set: ls} }
}

// Proto implements Handler.
func (h *ProbeResponder) Proto() Proto { return ProtoProbe }

// Role implements Handler.
func (h *ProbeResponder) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *ProbeResponder) Digest() uint64 { return DigestProbe(h.set) }

// Run implements Handler: read the prober's summary and answer with our
// own, followed by our cached strata bits when the summaries do not
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
	if h.Served.Sync && req.Sync && !h.Served.Match(req) {
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

// writePointList writes a self-describing point list: uvarint count, then
// per point a uvarint dimension and varint coordinates. Self-describing
// keeps the repair protocol independent of any one space definition — a
// sync-only live set has no declared space at all.
func writePointList(e *transport.Encoder, pts metric.PointSet) {
	e.WriteUvarint(uint64(len(pts)))
	for _, pt := range pts {
		e.WriteUvarint(uint64(len(pt)))
		for _, c := range pt {
			e.WriteVarint(int64(c))
		}
	}
}

// readPointList reads what writePointList wrote, guarding both counts.
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
		dim, err := d.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if dim > 1<<20 {
			return nil, fmt.Errorf("netproto: implausible point dimension %d in repair", dim)
		}
		// Each coordinate costs at least one wire byte; reject a
		// dimension the rest of the frame cannot back before
		// allocating the point.
		if dim > uint64(d.Remaining()) {
			return nil, fmt.Errorf("netproto: point dimension %d exceeds remaining frame (%d bytes)", dim, d.Remaining())
		}
		pt := make(metric.Point, dim)
		for j := range pt {
			v, err := d.ReadVarint()
			if err != nil {
				return nil, err
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				return nil, fmt.Errorf("netproto: coordinate %d out of range in repair", v)
			}
			pt[j] = int32(v)
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

// diffEstimate reads a peer's strata estimator from d and estimates the
// difference against local, which it only reads (Estimate clones).
func diffEstimate(d *transport.Decoder, seed uint64, local *iblt.Strata) (int, error) {
	remote, err := iblt.DecodeStrata(d, seed)
	if err != nil {
		return 0, err
	}
	return local.Estimate(remote)
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
// positioned after its true, and the difference bound of the table that
// peeled: an honest ack names no more IDs than that. An estimate or a
// doubled bound above iblt.MaxDiff is refused before any table is
// built.
func diffRespond(conn transport.Conn, seed uint64, ids []uint64, est int) (ack *transport.Decoder, diffBound int, err error) {
	if est > iblt.MaxDiff {
		return nil, 0, fmt.Errorf("netproto: difference estimate %d exceeds limit %d", est, iblt.MaxDiff)
	}
	diffBound = est*2 + 8
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
			return d, diffBound, nil
		}
		if attempt >= maxRetries {
			return nil, 0, fmt.Errorf("netproto: ID difference failed after %d attempts", attempt+1)
		}
		diffBound *= 2
	}
}

// RepairInitiator drives one repair session for a live set. Hint, when
// positive, is a difference estimate already in hand (from a probe) and
// elides the strata round. After Run both sides hold the union of their
// distinct points; Sent/Received/Applied count the point payloads.
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

// NewRepairInitiator binds the initiating side to its live set; the set
// must maintain Sync state.
func NewRepairInitiator(ls *live.Set, hint int) (*RepairInitiator, error) {
	if _, ok := ls.SyncConfig(); !ok {
		return nil, fmt.Errorf("netproto: repair needs a live set with Sync state")
	}
	return &RepairInitiator{set: ls, Hint: hint}, nil
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
	if h.Hint > 0 && h.Hint <= iblt.MaxDiff {
		e.WriteUvarint(uint64(h.Hint))
	} else {
		e.WriteUvarint(0)
		e.WriteBitString(snap.StrataWire())
	}
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
	if _, ok := ls.SyncConfig(); !ok {
		return nil, fmt.Errorf("netproto: repair needs a live set with Sync state")
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
	if _, ok := ls.SyncConfig(); !ok {
		return nil, fmt.Errorf("netproto: repair needs a live set with Sync state")
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
	est := int(hint)
	if hint == 0 {
		if est, err = diffEstimate(d, sc.Seed, snap.Strata); err != nil {
			return err
		}
	} else if hint > iblt.MaxDiff {
		return fmt.Errorf("netproto: repair hint %d exceeds limit %d", hint, iblt.MaxDiff)
	}
	ack, diffBound, err := diffRespond(conn, sc.Seed, snap.IDs, est)
	if err != nil {
		return err
	}
	wanted, err := readIDList(ack)
	if err != nil {
		return err
	}
	// The IBLT we shipped can decode at most diffBound IDs, so an
	// honest initiator can never ask for more; a longer list is a
	// hostile allocation probe and is refused before PointsForIDs
	// clones a single point.
	if len(wanted) > diffBound {
		return fmt.Errorf("netproto: repair wanted-ID count %d exceeds negotiated bound %d", len(wanted), diffBound)
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

package netproto

import (
	"fmt"

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
// Probe (ProtoProbe) is the cheap divergence estimate behind
// power-of-two-choices peer selection: one frame each way carrying the
// set's epoch, distinct-point count, order-independent ID fingerprint,
// EMD sketch fingerprint (when maintained), and strata estimator (when
// maintained). Each side can then decide locally whether the sets are
// fingerprint-identical and, if not, estimate the difference size —
// without shipping a single point.
//
//	initiator → peer: summary
//	peer → initiator: summary
//
// Most probes find the sets identical, and then the two strata
// estimators are identical bits: the session digest pins their seed and
// geometry, so equal cells encode to equal bytes. Neither side does
// strata codec work for that case. Each writes its snapshot's cached
// encoding (live.Snapshot.StrataWire), and each compares the peer's
// strata bits with that encoding before decoding them. Equal bits stand
// for the local estimator itself, whose difference estimate against
// itself is 0; any other bits are decoded and validated in full. The
// wire bytes are the same either way.
//
// Repair (ProtoRepair) converges the sets exactly: classic strata+IBLT
// ID reconciliation followed by a point-payload exchange, after which
// both sides hold the union of distinct points (add-wins anti-entropy
// merge; MergeAbsent makes application idempotent). A probe's estimate
// can be passed as a hint, skipping the strata round entirely —
// power-of-two-choices probing already paid for it.
//
//	initiator → peer: uvarint hint (0 = none; strata follows when 0)
//	peer → initiator: uvarint attempt, IBLT of peer's IDs   ─┐ repeat on
//	initiator → peer: ok bool; on ok: wanted IDs + points   ─┘ decode fail
//	peer → initiator: points for the wanted IDs
const (
	// ProtoProbe is the divergence-estimate exchange.
	ProtoProbe Proto = 6
	// ProtoRepair is exact set convergence (ID sync + point payloads).
	ProtoRepair Proto = 7
)

func init() {
	RegisterProto(ProtoProbe, "probe")
	RegisterProto(ProtoRepair, "repair")
}

// DigestLiveSet folds the wire-relevant configuration of a live set:
// which structures it maintains and their parameter digests. Two nodes
// hosting one named set must configure it identically for probe
// fingerprints and repair IDs to be comparable; this digest is what the
// session header checks.
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
		h = m.Hash(h ^ uint64(sc.StrataCells))
	}
	return h
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
	// EMDFingerprint hashes the full EMD message (0 when EMD is off).
	EMDFingerprint uint64
	// Strata is the ID-difference estimator (nil when Sync is off).
	// After a probe it is the local estimator itself when the peer's
	// strata bits equalled ours.
	Strata *iblt.Strata

	// strataWire/strataBits are Strata's cached encoding when the
	// summary describes a local snapshot (nil for a decoded one).
	strataWire []byte
	strataBits int64
}

func summaryOf(snap *live.Snapshot) ProbeSummary {
	wire, bits := snap.StrataWire()
	return ProbeSummary{
		Epoch:          snap.Epoch,
		Distinct:       len(snap.IDs),
		IDFingerprint:  snap.IDFingerprint,
		EMDFingerprint: snap.EMDFingerprint,
		Strata:         snap.Strata,
		strataWire:     wire,
		strataBits:     bits,
	}
}

func encodeSummary(e *transport.Encoder, s ProbeSummary) {
	e.WriteUvarint(s.Epoch)
	e.WriteUvarint(uint64(s.Distinct))
	e.WriteUint64(s.IDFingerprint)
	e.WriteUint64(s.EMDFingerprint)
	e.WriteBool(s.Strata != nil)
	switch {
	case s.Strata != nil && s.strataWire != nil:
		e.WriteBitString(s.strataWire, s.strataBits)
	case s.Strata != nil:
		s.Strata.Encode(e)
	}
}

// decodeSummary reads a peer's summary. local is this side's summary
// (the zero value when there is none): a peer strata whose bits equal
// local's cached encoding is not decoded, and the result's Strata is
// local.Strata, read-only.
func decodeSummary(d *transport.Decoder, strataSeed uint64, local ProbeSummary) (ProbeSummary, error) {
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
	hasStrata, err := d.ReadBool()
	if err != nil {
		return s, err
	}
	if hasStrata {
		if local.strataWire != nil && d.ConsumeIfEqual(local.strataWire, local.strataBits) {
			s.Strata = local.Strata
		} else if s.Strata, err = iblt.DecodeStrata(d, strataSeed); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Match reports whether the summaries describe provably-converged sets:
// equal ID fingerprints and counts when both maintain Sync state, equal
// EMD fingerprints otherwise. Summaries with no comparable structure
// never match.
func (s ProbeSummary) Match(o ProbeSummary) bool {
	if s.Strata != nil && o.Strata != nil {
		return s.IDFingerprint == o.IDFingerprint && s.Distinct == o.Distinct
	}
	if s.EMDFingerprint != 0 && o.EMDFingerprint != 0 {
		return s.EMDFingerprint == o.EMDFingerprint
	}
	return false
}

// ProbeInitiator dials one probe session for a live set; after Run,
// Local and Remote hold the two summaries, Estimate the strata estimate
// of the ID difference (-1 when either side lacks an estimator), and
// Matched whether the sets are fingerprint-identical.
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
	if h.Remote, err = decodeSummary(d, sc.Seed, h.Local); err != nil {
		return err
	}
	h.Matched = h.Local.Match(h.Remote)
	h.Estimate = -1
	switch {
	case h.Local.Strata != nil && h.Remote.Strata == h.Local.Strata:
		// The peer's strata bits equalled ours; an estimator minus
		// itself peels to nothing.
		h.Estimate = 0
	case h.Local.Strata != nil && h.Remote.Strata != nil:
		est, err := h.Local.Strata.Estimate(h.Remote.Strata)
		if err != nil {
			return fmt.Errorf("netproto: probe estimate: %w", err)
		}
		h.Estimate = est
	}
	return nil
}

// ProbeResponder answers probe sessions from a live set's snapshot.
type ProbeResponder struct {
	set *live.Set

	// Served is the summary shipped to the prober.
	Served ProbeSummary
}

// NewProbeResponderFactory returns a server-registerable factory
// answering probes for the set.
func NewProbeResponderFactory(ls *live.Set) func() Handler {
	return func() Handler { return &ProbeResponder{set: ls} }
}

// Proto implements Handler.
func (h *ProbeResponder) Proto() Proto { return ProtoProbe }

// Role implements Handler.
func (h *ProbeResponder) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *ProbeResponder) Digest() uint64 { return DigestLiveSet(h.set) }

// Run implements Handler: read the prober's summary, answer with our
// own. The prober's summary is not used server-side, but it is still
// parsed and validated. Its strata is compared with ours before it is
// decoded, so on the common identical-sets probe the check is a byte
// comparison rather than a strata decode.
func (h *ProbeResponder) Run(conn transport.Conn) error {
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	h.Served = summaryOf(h.set.Snapshot())
	sc, _ := h.set.SyncConfig()
	if _, err := decodeSummary(d, sc.Seed, h.Served); err != nil {
		return err
	}
	e := transport.NewEncoder()
	encodeSummary(e, h.Served)
	return conn.Send(e)
}

// ---------------------------------------------------------------------------
// Repair: exact convergence.

// repairMaxRetries bounds the IBLT doubling rounds.
const repairMaxRetries = 6

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

// repairMaxDiff bounds the difference size a repair session will size
// an IBLT for, whether the bound arrives as a peer-supplied hint or
// grows by doubling. Without it a single hostile uvarint (or a runaway
// retry loop) could demand a multi-gigabyte table before any payload
// flows; with it the worst-case table stays tens of megabytes.
const repairMaxDiff = 1 << 20

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
			pt[j] = int32(v)
		}
		out = append(out, pt)
	}
	return out, nil
}

func readIDList(d *transport.Decoder) ([]uint64, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxFrame/8) {
		return nil, fmt.Errorf("netproto: implausible ID count %d in repair", n)
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
	if h.Hint > 0 && h.Hint <= repairMaxDiff {
		e.WriteUvarint(uint64(h.Hint))
	} else {
		e.WriteUvarint(0)
		e.WriteBitString(snap.StrataWire())
	}
	if err := conn.Send(e); err != nil {
		return err
	}
	var peerOnly, mineOnly []uint64
	for attempt := 0; ; attempt++ {
		d, err := conn.Recv()
		if err != nil {
			return err
		}
		if _, err := d.ReadUvarint(); err != nil {
			return err
		}
		seed := sc.Seed + 0x4e9a + uint64(attempt)*0x9e37
		tbl, err := iblt.DecodeFrom(d, seed)
		if err != nil {
			return err
		}
		for _, id := range snap.IDs {
			tbl.Delete(id)
		}
		added, removed, decErr := tbl.Decode()
		if decErr == nil {
			peerOnly, mineOnly = added, removed
			break
		}
		e := transport.NewEncoder()
		e.WriteBool(false)
		if err := conn.Send(e); err != nil {
			return err
		}
		if attempt >= repairMaxRetries {
			return fmt.Errorf("netproto: repair ID sync failed after %d attempts", attempt+1)
		}
	}
	// Ack frame: the peer-only IDs whose points we want, plus the points
	// for our exclusive IDs (the peer cannot name what it has never
	// seen).
	pts, _ := h.set.PointsForIDs(mineOnly)
	ack := transport.NewEncoder()
	ack.WriteBool(true)
	ack.WriteUvarint(uint64(len(peerOnly)))
	for _, id := range peerOnly {
		ack.WriteUint64(id)
	}
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

// NewRepairResponderFactory returns a server-registerable factory
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
		remote, err := iblt.DecodeStrata(d, sc.Seed)
		if err != nil {
			return err
		}
		if est, err = snap.Strata.Estimate(remote); err != nil {
			return err
		}
	} else if hint > repairMaxDiff {
		return fmt.Errorf("netproto: repair hint %d exceeds limit %d", hint, repairMaxDiff)
	}
	if est > repairMaxDiff {
		return fmt.Errorf("netproto: repair difference estimate %d exceeds limit %d", est, repairMaxDiff)
	}
	diffBound := est*2 + 8
	var d2 *transport.Decoder
	for attempt := 0; ; attempt++ {
		if diffBound > repairMaxDiff {
			return fmt.Errorf("netproto: repair IBLT bound %d exceeds limit %d", diffBound, repairMaxDiff)
		}
		seed := sc.Seed + 0x4e9a + uint64(attempt)*0x9e37
		tbl := iblt.NewFromKeys(iblt.CellsForDiff(diffBound, 3), 3, seed, snap.IDs, 1)
		e := transport.NewEncoder()
		e.WriteUvarint(uint64(attempt))
		tbl.Encode(e)
		if err := conn.Send(e); err != nil {
			return err
		}
		if d2, err = conn.Recv(); err != nil {
			return err
		}
		ok, err := d2.ReadBool()
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if attempt >= repairMaxRetries {
			return fmt.Errorf("netproto: repair ID sync failed after %d attempts", attempt+1)
		}
		diffBound *= 2
	}
	wanted, err := readIDList(d2)
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
	theirPts, err := readPointList(d2)
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
	h.Sent = len(pts)
	applied, err := h.set.MergeAbsent(theirPts)
	if err != nil {
		return fmt.Errorf("netproto: repair merge: %w", err)
	}
	h.Applied = applied
	return nil
}

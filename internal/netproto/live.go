package netproto

import (
	"fmt"
	"sync"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/transport"
)

// Live serving: handler factories bound to a live.Set instead of a
// frozen point set, so each session serves one consistent epoch end to
// end while later sessions see later epochs. Gap takes the set's
// current snapshot when the session is accepted; live-emd serves the
// epoch current when the peer's last synced epoch arrives, so its delta
// is read from the set's one sketch at the epoch it serves.
//
// Gap speaks its existing protocol unchanged — the live set only
// amortizes the per-session key payloads. EMD gets a dedicated
// protocol, ProtoLiveEMD, with a delta-sync fast path:
//
//	Bob → Alice: uvarint lastEpoch   (0 = no cached sketch)
//	Alice → Bob: uvarint epoch, uvarint mode (0 full / 1 delta),
//	             uint64 fingerprint, bytes payload
//
// A full payload is the ordinary Algorithm 1 message; a delta payload
// lists only the cells churned since lastEpoch with absolute values
// (emd.Sketch.EncodeCells). The fingerprint hashes the full message at
// the served epoch, so a receiver detects cache divergence after
// patching instead of reconciling against garbage. The server falls
// back to full when the peer's epoch predates the churn journal, or
// when the delta would not be smaller.

// ProtoLiveEMD is the EMD protocol with epoch-tagged sketches and
// delta synchronization for returning peers.
const ProtoLiveEMD Proto = 5

const (
	liveModeFull  = 0
	liveModeDelta = 1
)

// LiveEMDSender serves one session's EMD sketch from a live set.
type LiveEMDSender struct {
	params emd.Params
	set    *live.Set

	// Epoch is the generation this session served.
	Epoch uint64
	// DeltaServed reports whether the fast path was taken.
	DeltaServed bool
	// PayloadBytes is the payload size actually shipped.
	PayloadBytes int
}

// NewLiveEMDSenderFactory returns a factory, for a server's Resolver,
// whose handlers serve the set's EMD sketch with delta sync. The set must
// be configured with EMD; a set with Sync builds its sketch when the
// first session is served (live.Set.ServeEMD).
func NewLiveEMDSenderFactory(ls *live.Set) (func() Handler, error) {
	p, ok := ls.EMDParams()
	if !ok {
		return nil, fmt.Errorf("netproto: live set maintains no EMD sketch")
	}
	return func() Handler { return &LiveEMDSender{params: p, set: ls} }, nil
}

// Proto implements Handler.
func (h *LiveEMDSender) Proto() Proto { return ProtoLiveEMD }

// Role implements Handler.
func (h *LiveEMDSender) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *LiveEMDSender) Digest() uint64 { return DigestEMD(h.params) }

// Run implements Handler: read the peer's last synced epoch, then
// serve the current epoch with a delta when the journal covers the gap
// and the delta is smaller, a full sketch otherwise.
func (h *LiveEMDSender) Run(conn transport.Conn) error {
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	peerEpoch, err := d.ReadUvarint()
	if err != nil {
		return err
	}
	snap, delta, err := h.set.ServeEMD(peerEpoch)
	if err != nil {
		return err
	}
	h.Epoch = snap.Epoch
	mode, payload := liveModeFull, snap.EMDMessage
	if delta != nil && len(delta) < len(payload) {
		mode, payload = liveModeDelta, delta
	}
	h.DeltaServed = mode == liveModeDelta
	h.PayloadBytes = len(payload)
	e := transport.NewEncoder()
	e.WriteUvarint(snap.Epoch)
	e.WriteUvarint(uint64(mode))
	e.WriteUint64(snap.EMDFingerprint)
	e.WriteBytes(payload)
	return conn.Send(e)
}

// EMDCache is a client's sketch cache across live EMD sessions: the
// last synced epoch and the decoded sketch at that epoch. Share one
// cache across the sessions of one (server, params) pair; it is safe
// for concurrent use.
type EMDCache struct {
	mu     sync.Mutex
	epoch  uint64
	sketch *emd.Sketch
}

// Epoch returns the last synced epoch (0 before the first session).
func (c *EMDCache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// LiveEMDReceiver is Bob's live EMD handler; Result is populated by
// Run, and the cache is advanced to the served epoch.
type LiveEMDReceiver struct {
	Params emd.Params
	Set    metric.PointSet
	Cache  *EMDCache
	Result emd.Result

	// Epoch is the server generation this session reconciled against.
	Epoch uint64
	// UsedDelta reports whether the session took the fast path.
	UsedDelta bool
}

// NewLiveEMDReceiver binds Bob's side of the live EMD protocol. cache
// may be nil for a one-shot session (a fresh cache is created, and the
// transfer is necessarily full).
func NewLiveEMDReceiver(p emd.Params, sb metric.PointSet, cache *EMDCache) *LiveEMDReceiver {
	p.ApplyDefaults()
	if cache == nil {
		cache = &EMDCache{}
	}
	return &LiveEMDReceiver{Params: p, Set: sb, Cache: cache}
}

// Proto implements Handler.
func (h *LiveEMDReceiver) Proto() Proto { return ProtoLiveEMD }

// Role implements Handler.
func (h *LiveEMDReceiver) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *LiveEMDReceiver) Digest() uint64 { return DigestEMD(h.Params) }

// Run implements Handler.
func (h *LiveEMDReceiver) Run(conn transport.Conn) error {
	c := h.Cache
	c.mu.Lock()
	defer c.mu.Unlock()
	e := transport.NewEncoder()
	e.WriteUvarint(c.epoch)
	if err := conn.Send(e); err != nil {
		return err
	}
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	epoch, err := d.ReadUvarint()
	if err != nil {
		return err
	}
	mode, err := d.ReadUvarint()
	if err != nil {
		return err
	}
	fp, err := d.ReadUint64()
	if err != nil {
		return err
	}
	// Borrowed: DecodeSketch and ApplyCells copy what they keep, and the
	// fingerprint is computed before the frame can be invalidated.
	payload, err := d.ReadBytesBorrow()
	if err != nil {
		return err
	}
	sk := c.sketch
	var got uint64
	switch mode {
	case liveModeFull:
		if sk, err = emd.DecodeSketch(h.Params, payload); err != nil {
			return err
		}
		got = emd.FingerprintMessage(payload) // wire bytes already in hand
	case liveModeDelta:
		if sk == nil {
			return fmt.Errorf("netproto: delta reply with no cached sketch")
		}
		if err := sk.ApplyCells(payload); err != nil {
			return err
		}
		got = sk.Fingerprint()
	default:
		return fmt.Errorf("netproto: unknown live-emd mode %d", mode)
	}
	if got != fp {
		// The cache diverged from the server's sketch (e.g. a missed
		// epoch); drop it so the next session recovers with a full
		// transfer.
		c.sketch, c.epoch = nil, 0
		return fmt.Errorf("netproto: live-emd fingerprint mismatch (local %#x, server %#x)", got, fp)
	}
	c.sketch, c.epoch = sk, epoch
	h.Epoch = epoch
	h.UsedDelta = mode == liveModeDelta
	res, err := sk.Apply(h.Set)
	if err != nil {
		return err
	}
	if st, ok := transport.ConnStats(conn); ok {
		res.Stats = st
	}
	h.Result = res
	return nil
}

// LiveGapSender serves Alice's side of the Gap protocol from a live
// snapshot's cached key payloads — the wire protocol is the ordinary
// ProtoGap, so any GapReceiver can be the peer.
type LiveGapSender struct {
	set  *live.Set
	snap *live.Snapshot

	// Epoch is the generation this session served.
	Epoch uint64
	// Report is populated by Run.
	Report gap.AliceReport
}

// NewLiveGapSenderFactory returns a factory serving Gap sessions from
// the set's cached key payloads. The set must maintain Gap state.
func NewLiveGapSenderFactory(ls *live.Set) (func() Handler, error) {
	if _, ok := ls.GapParams(); !ok {
		return nil, fmt.Errorf("netproto: live set maintains no gap keys")
	}
	return func() Handler {
		return &LiveGapSender{set: ls, snap: ls.Snapshot()}
	}, nil
}

// Proto implements Handler.
func (h *LiveGapSender) Proto() Proto { return ProtoGap }

// Role implements Handler.
func (h *LiveGapSender) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *LiveGapSender) Digest() uint64 {
	p, _ := h.set.GapParams()
	return DigestGap(p)
}

// Run implements Handler.
func (h *LiveGapSender) Run(conn transport.Conn) error {
	ky, _ := h.set.GapKeyer()
	h.Epoch = h.snap.Epoch
	rep, err := ky.RunAlice(conn, h.snap.Points, h.snap.GapPayloads)
	if err != nil {
		return err
	}
	h.Report = rep
	return nil
}

package netproto

import (
	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/hashx"
	"repro/internal/metric"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// Parameter digests. Each folds exactly the fields both parties must
// agree on; the session header carries the result.

// DigestEMD folds the fields of emd.Params both parties must agree on
// for their sketches to align: the space, the protocol scalars, and the
// geometry knobs (KeyBits, CellsPerLevel) that shape keys and RIBLT
// cells. Defaults are applied first, so a zero and an explicit default
// configuration agree.
func DigestEMD(p emd.Params) uint64 {
	p.ApplyDefaults()
	m := hashx.MixerFromSeed(0x1807_09694)
	h := m.Hash(uint64(p.Space.Delta))
	h = m.Hash(h ^ uint64(p.Space.Dim))
	h = m.Hash(h ^ uint64(p.Space.Norm))
	h = m.Hash(h ^ uint64(p.N))
	h = m.Hash(h ^ uint64(p.K))
	h = m.Hash(h ^ uint64(int64(p.D1*1000)))
	h = m.Hash(h ^ uint64(int64(p.D2*1000)))
	h = m.Hash(h ^ uint64(p.Q))
	h = m.Hash(h ^ uint64(p.KeyBits))
	h = m.Hash(h ^ uint64(p.CellsPerLevel))
	h = m.Hash(h ^ p.Seed)
	return h
}

// DigestGap folds the fields of gap.Params both parties must agree on
// (after defaulting, so a zero and an explicit default configuration
// agree), including the SetSets tuning forwarded into the embedded
// multiset-reconciliation rounds — a strata or retry mismatch there
// fails mid-protocol, so it must fail the handshake instead.
func DigestGap(p gap.Params) uint64 {
	p.ApplyDefaults()
	m := hashx.MixerFromSeed(0x4a92)
	h := m.Hash(uint64(p.Space.Delta))
	h = m.Hash(h ^ uint64(p.Space.Dim))
	h = m.Hash(h ^ uint64(p.Space.Norm))
	h = m.Hash(h ^ uint64(p.N))
	h = m.Hash(h ^ uint64(int64(p.R1*1000)))
	h = m.Hash(h ^ uint64(int64(p.R2*1000)))
	h = m.Hash(h ^ uint64(p.HFactor))
	h = m.Hash(h ^ uint64(gap.EntryBits(p.N)))
	h = m.Hash(h ^ p.Seed)
	// PayloadBytes and Seed are derived by the gap plan itself; the
	// remaining setsets knobs come from the caller and must match.
	ss := p.SetSets
	ss.ApplyDefaults()
	h = m.Hash(h ^ uint64(ss.StrataCells))
	h = m.Hash(h ^ uint64(ss.Q))
	h = m.Hash(h ^ uint64(ss.MaxRetries))
	h = m.Hash(h ^ uint64(int64(ss.SafetyFactor*1000)))
	return h
}

// ---------------------------------------------------------------------------
// EMD (Algorithm 1). Alice ships her level-RIBLTs in a single message;
// Bob deletes his pairs and assembles S′B.

// EMDSender is Alice's EMD handler.
type EMDSender struct {
	Params emd.Params
	Set    metric.PointSet
	msg    []byte // prebuilt message (NewEMDSenderFactory); nil = build in Run
}

// NewEMDSender binds Alice's side of the EMD protocol to her point set.
func NewEMDSender(p emd.Params, sa metric.PointSet) *EMDSender {
	p.ApplyDefaults()
	return &EMDSender{Params: p, Set: sa}
}

// NewEMDSenderFactory precomputes Alice's message once — it is
// deterministic for a fixed (Params, Set) — and returns a factory,
// for a server's Resolver, whose handlers all serve the cached bytes. This is the "reuse sketches" path: each additional peer costs
// a write instead of a full LSH + RIBLT rebuild.
func NewEMDSenderFactory(p emd.Params, sa metric.PointSet) (func() Handler, error) {
	p.ApplyDefaults()
	msg, err := emd.BuildMessage(p, sa)
	if err != nil {
		return nil, err
	}
	return func() Handler { return &EMDSender{Params: p, Set: sa, msg: msg} }, nil
}

// Proto implements Handler.
func (h *EMDSender) Proto() Proto { return ProtoEMD }

// Role implements Handler.
func (h *EMDSender) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *EMDSender) Digest() uint64 { return DigestEMD(h.Params) }

// Run implements Handler: send the single protocol message, building
// the sketch unless the factory already did.
func (h *EMDSender) Run(conn transport.Conn) error {
	msg := h.msg
	if msg == nil {
		var err error
		if msg, err = emd.BuildMessage(h.Params, h.Set); err != nil {
			return err
		}
	}
	e := transport.NewEncoder()
	e.WriteBytes(msg)
	return conn.Send(e)
}

// EMDReceiver is Bob's EMD handler; Result is populated by Run.
type EMDReceiver struct {
	Params emd.Params
	Set    metric.PointSet
	Result emd.Result
}

// NewEMDReceiver binds Bob's side of the EMD protocol to his point set.
func NewEMDReceiver(p emd.Params, sb metric.PointSet) *EMDReceiver {
	p.ApplyDefaults()
	return &EMDReceiver{Params: p, Set: sb}
}

// Proto implements Handler.
func (h *EMDReceiver) Proto() Proto { return ProtoEMD }

// Role implements Handler.
func (h *EMDReceiver) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *EMDReceiver) Digest() uint64 { return DigestEMD(h.Params) }

// Run implements Handler.
func (h *EMDReceiver) Run(conn transport.Conn) error {
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	// Borrowed, not copied: ApplyMessage only reads the message, and the
	// frame stays live until the session's wire is released.
	msg, err := d.ReadBytesBorrow()
	if err != nil {
		return err
	}
	res, err := emd.ApplyMessage(h.Params, h.Set, msg)
	if err != nil {
		return err
	}
	if st, ok := transport.ConnStats(conn); ok {
		res.Stats = st
	}
	h.Result = res
	return nil
}

// ---------------------------------------------------------------------------
// Gap Guarantee (Theorem 4.2).

// GapSender is Alice's Gap handler; Report is populated by Run.
type GapSender struct {
	Params gap.Params
	Set    metric.PointSet
	Report gap.AliceReport
}

// NewGapSender binds Alice's side of the Gap protocol to her point set.
func NewGapSender(p gap.Params, sa metric.PointSet) *GapSender {
	p.ApplyDefaults()
	return &GapSender{Params: p, Set: sa}
}

// Proto implements Handler.
func (h *GapSender) Proto() Proto { return ProtoGap }

// Role implements Handler.
func (h *GapSender) Role() Role { return RoleAlice }

// Digest implements Handler.
func (h *GapSender) Digest() uint64 { return DigestGap(h.Params) }

// Run implements Handler.
func (h *GapSender) Run(conn transport.Conn) error {
	rep, err := gap.RunAlice(h.Params, conn, h.Set)
	if err != nil {
		return err
	}
	h.Report = rep
	return nil
}

// GapReceiver is Bob's Gap handler; Result is populated by Run.
type GapReceiver struct {
	Params gap.Params
	Set    metric.PointSet
	Result gap.Result
}

// NewGapReceiver binds Bob's side of the Gap protocol to his point set.
func NewGapReceiver(p gap.Params, sb metric.PointSet) *GapReceiver {
	p.ApplyDefaults()
	return &GapReceiver{Params: p, Set: sb}
}

// Proto implements Handler.
func (h *GapReceiver) Proto() Proto { return ProtoGap }

// Role implements Handler.
func (h *GapReceiver) Role() Role { return RoleBob }

// Digest implements Handler.
func (h *GapReceiver) Digest() uint64 { return DigestGap(h.Params) }

// Run implements Handler.
func (h *GapReceiver) Run(conn transport.Conn) error {
	res, err := gap.RunBob(h.Params, conn, h.Set)
	if err != nil {
		return err
	}
	if st, ok := transport.ConnStats(conn); ok {
		res.Stats = st
	}
	h.Result = res
	return nil
}

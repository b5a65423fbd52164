package robustsync

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/netproto"
	"repro/internal/session"
	"repro/internal/store"
)

// Networked entry points: the same protocol state machines the
// in-process helpers drive, carried over any byte stream (net.Conn,
// pipes, tunnels) as length-prefixed frames. Every session opens with a
// negotiated header (protocol ID, role, parameter digest), so both
// endpoints must construct identical Params — mismatches fail fast
// before any protocol traffic flows.
//
// Two deployment shapes are exposed:
//
//   - Two-party: the Send/Receive function pairs below run one protocol
//     over one byte stream, for symmetric peers.
//   - Client/server: a Server accepts TCP or unix connections and runs
//     many concurrent sessions against the handlers its Resolver
//     names; a Dialer is the matching client. Handlers bind a protocol side to parameters
//     and local data, and carry the typed result after the session.

// EMDSend runs Alice's side of the EMD protocol over rw: the session
// header plus the single Algorithm 1 message.
func EMDSend(rw io.ReadWriter, p EMDParams, sa PointSet) error {
	return netproto.EMDAlice(rw, p, sa)
}

// EMDReceive runs Bob's side over rw and returns his reconciled set.
func EMDReceive(rw io.ReadWriter, p EMDParams, sb PointSet) (EMDResult, error) {
	return netproto.EMDBob(rw, p, sb)
}

// GapAliceReport is what the sending side of a networked gap run learns.
type GapAliceReport = gap.AliceReport

// GapSend runs Alice's side of the 4-round Gap Guarantee protocol over
// rw.
func GapSend(rw io.ReadWriter, p GapParams, sa PointSet) (GapAliceReport, error) {
	return netproto.GapAlice(rw, p, sa)
}

// GapReceive runs Bob's side over rw; the result carries this endpoint's
// traffic statistics.
func GapReceive(rw io.ReadWriter, p GapParams, sb PointSet) (GapResult, error) {
	return netproto.GapBob(rw, p, sb)
}

// ---------------------------------------------------------------------------
// Session engine: the multi-peer server and client (internal/session),
// re-exported for deployments that serve many concurrent peers.

// Proto identifies a reconciliation protocol in the session header.
type Proto = netproto.Proto

// The negotiable protocols.
const (
	ProtoEMD = netproto.ProtoEMD
	ProtoGap = netproto.ProtoGap
)

// Role is the side of a protocol an endpoint plays.
type Role = netproto.Role

// SessionHandler is one party's protocol state machine bound to its
// parameters and local data; construct with the New*Sender/Receiver
// helpers.
type SessionHandler = netproto.Handler

// Server accepts TCP or unix connections and runs many concurrent
// reconciliation sessions against the handler factories its
// ServerConfig.Resolver names.
type Server = session.Server

// ServerConfig tunes a Server: the Resolver that names each session's
// handler (NewHandlerResolver, NewStoreResolver), session caps,
// deadlines, callbacks.
type ServerConfig = session.Config

// Session owns one served peer's negotiated protocol state machine.
type Session = session.Session

// Dialer opens client sessions against a Server.
type Dialer = session.Dialer

// NewServer builds a reconciliation server answering every session
// through cfg.Resolver; then Listen or Serve.
func NewServer(cfg ServerConfig) *Server { return session.NewServer(cfg) }

// NewHandlerResolver serves fixed handler factories on the default set:
// each factory is probed once for its protocol and role, and a peer
// playing the complementary role is served a fresh handler from it.
func NewHandlerResolver(factories ...func() SessionHandler) netproto.Resolver {
	return netproto.Handlers(factories...)
}

// NewEMDSender binds Alice's side of the EMD protocol to her point set.
func NewEMDSender(p EMDParams, sa PointSet) SessionHandler { return netproto.NewEMDSender(p, sa) }

// NewEMDReceiver binds Bob's side of the EMD protocol to his point set;
// after the session, Result holds his reconciled set.
func NewEMDReceiver(p EMDParams, sb PointSet) *netproto.EMDReceiver {
	return netproto.NewEMDReceiver(p, sb)
}

// NewGapSender binds Alice's side of the Gap protocol; after the
// session, Report holds what she transmitted.
func NewGapSender(p GapParams, sa PointSet) *netproto.GapSender {
	return netproto.NewGapSender(p, sa)
}

// NewGapReceiver binds Bob's side of the Gap protocol; after the
// session, Result holds his covered set.
func NewGapReceiver(p GapParams, sb PointSet) *netproto.GapReceiver {
	return netproto.NewGapReceiver(p, sb)
}

// ---------------------------------------------------------------------------
// Live sets: mutable reconciliation state with epoch-tagged snapshots
// and delta synchronization (internal/live), for deployments whose sets
// churn while they serve.

// LiveSet wraps a point multiset with Add/Remove/ApplyBatch and
// incrementally maintains the enabled protocol structures: one EMD
// sketch, never copied (O(hashes) cell updates per mutation,
// wire-bit-identical to a from-scratch build; a set with Sync builds it
// on its first live-emd serve), cached Gap key payloads, and exact-ID
// fingerprint state. Every mutation bumps an epoch; sessions serve
// consistent snapshots, which carry the encoded EMD message, not a
// sketch.
type LiveSet = live.Set

// LiveConfig selects which protocol structures a LiveSet maintains.
type LiveConfig = live.Config

// LiveSyncConfig enables exact-ID state over point fingerprints.
type LiveSyncConfig = live.SyncConfig

// LiveOp is one LiveSet batch mutation.
type LiveOp = live.Op

// LiveSnapshot is one epoch's immutable serving state.
type LiveSnapshot = live.Snapshot

// NewLiveSet builds a live set over the initial points using the
// sharded from-scratch constructions.
func NewLiveSet(cfg LiveConfig, initial PointSet) (*LiveSet, error) {
	return live.NewSet(cfg, initial)
}

// ProtoLiveEMD is the epoch-tagged EMD protocol with a delta-sync fast
// path for returning peers.
const ProtoLiveEMD = netproto.ProtoLiveEMD

// EMDSketchCache is a client's sketch cache across live EMD sessions;
// share one per (server, params) pair so returning sessions take the
// delta path.
type EMDSketchCache = netproto.EMDCache

// NewLiveEMDSenderFactory serves the live EMD protocol: each session
// serves the set's current epoch, shipping only churned cells to peers
// that announce a journal-covered epoch.
func NewLiveEMDSenderFactory(ls *LiveSet) (func() SessionHandler, error) {
	return netproto.NewLiveEMDSenderFactory(ls)
}

// NewLiveEMDReceiver binds Bob's side of the live EMD protocol; after
// the session, Result holds his reconciled set and the cache is
// advanced to the served epoch.
func NewLiveEMDReceiver(p EMDParams, sb PointSet, cache *EMDSketchCache) *netproto.LiveEMDReceiver {
	return netproto.NewLiveEMDReceiver(p, sb, cache)
}

// NewLiveGapSenderFactory serves ordinary Gap sessions from the set's
// cached key payloads (any GapReceiver can be the peer).
func NewLiveGapSenderFactory(ls *LiveSet) (func() SessionHandler, error) {
	return netproto.NewLiveGapSenderFactory(ls)
}

// ---------------------------------------------------------------------------
// Multi-tenant set store and the anti-entropy cluster (internal/store,
// internal/cluster): one server hosting many named live sets under
// session-hello namespaces, and mesh nodes converging those sets with their peers
// continuously.

// SetStore is a concurrent registry of named LiveSets, each with its
// own protocol parameters. The empty name is the default set.
type SetStore = store.Store

// NewSetStore builds an empty store; serve it by setting
// ServerConfig.Resolver = NewStoreResolver(st).
func NewSetStore() *SetStore { return store.New() }

// StoreStats aggregates a store's per-set gauges.
type StoreStats = store.Stats

// NewStoreResolver makes a session server serve every store set under
// its namespace: live-emd/gap per the set's LiveConfig, plus the
// cluster probe and repair protocols.
func NewStoreResolver(st *SetStore) netproto.Resolver { return netproto.StoreResolver(st) }

// ProtoProbe is the cluster divergence-estimate exchange; ProtoRepair
// converges two live sets exactly (ID difference + point payloads),
// and is the only exact-ID protocol on the wire.
const (
	ProtoProbe  = netproto.ProtoProbe
	ProtoRepair = netproto.ProtoRepair
)

// ClusterNode is one anti-entropy mesh member: a store, a session
// server, and a reconciler loop with power-of-two-choices peer
// selection.
type ClusterNode = cluster.Node

// ClusterConfig tunes a ClusterNode.
type ClusterConfig = cluster.Config

// ClusterSetMetrics is one hosted set's anti-entropy counters.
type ClusterSetMetrics = cluster.SetMetrics

// NewClusterNode builds a mesh member over the store; Start it with an
// address, install peers, and the reconciler keeps every hosted set
// converging.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.New(cfg) }

// Compile-time checks that the split-party APIs stay usable directly.
var (
	_ = emd.BuildMessage
	_ = emd.ApplyMessage
	_ = gap.RunAlice
	_ = gap.RunBob
)

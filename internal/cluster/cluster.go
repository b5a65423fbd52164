// Package cluster is the anti-entropy mesh: a Node wraps a multi-tenant
// store and a session server, and a reconciler loop keeps every hosted
// set that maintains Sync state converging with the other members of a
// static cluster — not per client request, but continuously. Sets
// without Sync are served (StoreResolver) but never reconciled: probe
// and repair compare point IDs, which only Sync state derives.
//
// Peer selection uses the power-of-choices trick (cf. Walzer, "What if
// we tried Less Power?", arXiv:2307.00644): each round, for each set,
// the node probes d (default 2) random peers with the cheap divergence
// exchange (ProtoProbe: epoch, distinct count and ID fingerprint; the
// peer adds its strata estimator only when they differ) and reconciles
// with the MORE divergent one. Probing two and repairing the worse
// concentrates repair where drift is largest for almost no extra
// probing cost; repairing a random single peer instead wastes whole
// sessions on already-converged pairs.
//
// Each reconciliation runs the cheapest sufficient protocol:
//
//	fingerprints match → no-op (the common steady-state round)
//	diverged           → exact repair (ProtoRepair): IBLT ID sync sized
//	                     by the probe's strata estimate, plus a point
//	                     payload exchange; both sides converge to the
//	                     union of their distinct points
//
// The mesh pulls no EMD sketch: repair converges every set, so a
// decoded sketch would go unused. Live-emd stays a protocol the node
// serves to clients (StoreResolver). Failures back off per
// (set, peer-independent) with exponential round-skipping, capped, so
// one dead member cannot absorb a node's whole anti-entropy budget.
//
// Convergence is add-wins: points flow toward the union; removals are
// local until every member has removed (no tombstones — the semantics a
// grow-set anti-entropy mesh provides). The metrics expose per-set
// round counters, no-op and repair counts, payload totals, and the
// consecutive-converged streak operators alert on.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/store"
)

// Config tunes a Node. Store is required; everything else defaults.
type Config struct {
	// Store holds the sets this node serves and reconciles.
	Store *store.Store
	// Peers are the other members' addresses. May be empty at New and
	// installed later with SetPeers (the listen-then-exchange-addresses
	// bootstrap).
	Peers []string
	// Network is "tcp" or "unix" (default "tcp").
	Network string
	// Interval is the anti-entropy round period (zero defaults to 1s).
	// Negative disables the background loop — rounds then run only via
	// ReconcileOnce, which tests and single-shot tools drive directly.
	Interval time.Duration
	// Choices is the d of power-of-d-choices probing (default 2,
	// clamped to the peer count).
	Choices int
	// Seed feeds the peer-selection RNG (default 1).
	Seed uint64
	// Session configures the embedded server (MaxSessions, timeouts,
	// Logf). Its Resolver and Transport are overwritten with this
	// node's: the store's sets, plus the gossip responder with
	// Membership, served over Transport.
	Session session.Config
	// DialTimeout / SessionTimeout bound outbound reconciliation
	// sessions (defaults as in session.Dialer). Outbound sessions share
	// one pooled multiplexed carrier per peer, so a round over S sets
	// costs O(peers) dials instead of O(S×choices).
	DialTimeout    time.Duration
	SessionTimeout time.Duration
	// Pipeline is how many sets reconcile concurrently within one
	// ReconcileOnce round (default 1 = strictly sequential, the
	// deterministic-trace mode). Pipelined sets ride the same carrier:
	// stream k+1's hello is in flight while stream k's repair drains, so
	// a latency-bound round costs RTTs of the deepest set, not the sum
	// over sets. Peer selection still happens
	// sequentially in set order before any session starts, so the
	// probe schedule for a given seed is Pipeline-independent.
	Pipeline int
	// WrapResolver, when set, wraps the node's store resolver before it
	// is installed on the embedded server (the gossip responder is
	// composed outside it). Fault-injection harnesses use it to
	// substitute byzantine responder factories; production nodes leave
	// it nil.
	WrapResolver func(netproto.Resolver) netproto.Resolver
	// Transport supplies the node's listeners and outbound connections
	// (nil = the real network). A simnet host here moves the whole node
	// — serving and anti-entropy dialing — onto the virtual network.
	Transport session.Transport
	// Logf, when set, receives reconciler progress lines.
	Logf func(format string, args ...any)

	// Membership, when set, switches the node to gossip-fed placement
	// mode (see membership.go): the peer list follows the member table,
	// and — with a Catalog — the hosted-set roster follows the
	// consistent-hash ring. The node serves the gossip responder on the
	// default set and drives exchanges from its reconciler loop; the
	// instance's Self address is this node's identity.
	Membership *gossip.Gossip
	// Catalog is the full set universe every member agrees on: names
	// and the exact live configuration each set uses (two owners with
	// different configs would never fingerprint-match). Every entry must
	// maintain Sync state. Ignored without Membership.
	Catalog []CatalogSet
	// Replication is the ring's owner count R per set (default 3,
	// clamped to the member count).
	Replication int
	// PlacementSeed selects the ring's hash family. Every member must
	// use the same value, or two nodes would compute different owner
	// sets from one member list.
	PlacementSeed uint64
}

// CatalogSet names one set of the cluster-wide catalog and the live
// configuration every owner must build it with.
type CatalogSet struct {
	Name   string
	Config live.Config
}

// SetMetrics counts one hosted set's anti-entropy activity on one node.
type SetMetrics struct {
	// Rounds is how many reconciliation rounds considered the set
	// (including rounds skipped by backoff).
	Rounds uint64
	// Skipped counts rounds the failure backoff suppressed.
	Skipped uint64
	// Probes / ProbeFailures count outbound probe sessions.
	Probes        uint64
	ProbeFailures uint64
	// Noops counts rounds where every probed peer matched.
	Noops uint64
	// Repairs / RepairFailures count exact repair sessions.
	Repairs        uint64
	RepairFailures uint64
	// PointsSent / PointsReceived total the repair payload traffic.
	PointsSent     uint64
	PointsReceived uint64
	// CorruptRejected counts repair batches refused by
	// verify-before-merge (each also records a corruption verdict
	// against the source peer in the health ledger).
	CorruptRejected uint64
	// LastEstimate is the most recent probe divergence estimate against
	// the reconciled peer (-1 before any).
	LastEstimate int
	// Streak is the consecutive all-matched rounds ending now; it
	// resets on any divergence, probe failure, or backoff skip.
	Streak uint64
	// Backoff is the rounds still to skip after a failure.
	Backoff int
	backoff int // last applied backoff, for doubling
}

// Node is one cluster member. Construct with New, bind with Start, and
// stop with Close; ReconcileOnce drives rounds manually when the
// background loop is disabled.
type Node struct {
	cfg   Config
	store *store.Store
	srv   *session.Server
	// pool is the outbound carrier pool every session rides.
	pool *session.MuxPool

	// catalog / catalogNames mirror Config.Catalog for placement mode.
	catalog      map[string]live.Config
	catalogNames []string

	// health is the peer ledger behind quarantine-aware peer selection
	// and per-peer adaptive deadlines (health.go). Always non-nil; its
	// mutex is a leaf lock, safe under n.mu.
	health *ledger

	mu      sync.Mutex
	peers   []string
	src     *rng.Source
	metrics map[string]*SetMetrics
	// owners maps each catalog set to its current co-owners (self
	// excluded); relinquish flags sets awaiting handoff confirmation.
	// Both are maintained by ApplyPlacement (membership.go).
	owners           map[string][]string
	relinquish       map[string]bool
	appliedVersion   uint64
	placementApplied bool
	placeStats       PlacementStats

	loopCancel chan struct{}
	loopDone   chan struct{}
	started    bool
}

// New builds a node over the store. The embedded server serves every
// store set under its namespace (probe, repair, and the set's live
// protocols), the default set included.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Choices <= 0 {
		cfg.Choices = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 2 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	res := netproto.StoreResolver(cfg.Store)
	if cfg.WrapResolver != nil {
		res = cfg.WrapResolver(res)
	}
	if cfg.Membership != nil {
		res = withGossip(res, cfg.Membership.ResponderFactory())
	}
	cfg.Session.Resolver = res
	// The node and its embedded server must agree on one network, or
	// anti-entropy would dial a different fabric than it serves.
	cfg.Session.Transport = cfg.Transport
	n := &Node{
		cfg:   cfg,
		store: cfg.Store,
		srv:   session.NewServer(cfg.Session),
		pool: &session.MuxPool{
			Network:        cfg.Network,
			DialTimeout:    cfg.DialTimeout,
			SessionTimeout: cfg.SessionTimeout,
			Transport:      cfg.Transport,
		},
		health:     newLedger(defaultQuarantineRounds),
		peers:      append([]string(nil), cfg.Peers...),
		src:        rng.New(cfg.Seed),
		metrics:    make(map[string]*SetMetrics),
		owners:     make(map[string][]string),
		relinquish: make(map[string]bool),
	}
	if cfg.Membership != nil {
		n.catalog = make(map[string]live.Config, len(cfg.Catalog))
		for _, cs := range cfg.Catalog {
			if _, dup := n.catalog[cs.Name]; dup {
				return nil, fmt.Errorf("cluster: catalog set %q listed twice", cs.Name)
			}
			if cs.Config.Sync == nil {
				return nil, fmt.Errorf("cluster: catalog set %q maintains no Sync state", cs.Name)
			}
			n.catalog[cs.Name] = cs.Config
			n.catalogNames = append(n.catalogNames, cs.Name)
		}
		sort.Strings(n.catalogNames)
	}
	return n, nil
}

// Server exposes the embedded session server (stats).
func (n *Node) Server() *session.Server { return n.srv }

// Store exposes the node's set store (the simulation harness reads
// fingerprints and plants churn through it).
func (n *Node) Store() *store.Store { return n.store }

// Quiesce blocks until every inbound session this node accepted has
// fully completed — including server-side state application, which
// outlives the initiator's session (a repair responder merges points
// after sending its final frame). The deterministic harness quiesces
// the whole mesh between rounds so each round starts from settled
// state.
func (n *Node) Quiesce() { n.srv.Quiesce() }

// SetPeers replaces the member list (bootstrap: listen on every node
// first, then install the exchanged addresses).
func (n *Node) SetPeers(peers []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append([]string(nil), peers...)
}

// Peers returns a copy of the member list, empty but not nil when there
// are no peers (it is served as a JSON array).
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string{}, n.peers...)
}

// Start binds the server to addr and, when Interval > 0, starts the
// background reconciler loop. The returned listener reports the bound
// address (useful with ":0").
func (n *Node) Start(addr string) (net.Listener, error) {
	l, err := n.srv.Listen(n.cfg.Network, addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		l.Close()
		return nil, errors.New("cluster: node already started")
	}
	n.started = true
	if n.cfg.Interval > 0 {
		n.loopCancel = make(chan struct{})
		n.loopDone = make(chan struct{})
		go n.loop(n.loopCancel, n.loopDone)
	}
	return l, nil
}

// loop runs reconciler rounds until cancel closes, then closes done. It
// takes its channels as arguments because Close clears the fields.
func (n *Node) loop(cancel <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(n.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-cancel:
			return
		case <-tick.C:
			n.GossipOnce()
			n.ReconcileOnce()
		}
	}
}

// Close stops the reconciler loop and shuts the server down, draining
// in-flight sessions for up to drain before force-closing them.
func (n *Node) Close(drain time.Duration) error {
	n.mu.Lock()
	cancel, done := n.loopCancel, n.loopDone
	n.loopCancel, n.loopDone = nil, nil
	n.mu.Unlock()
	if cancel != nil {
		close(cancel)
		<-done
	}
	n.pool.Close()
	return n.srv.Shutdown(drain)
}

// Metrics returns a copy of the per-set metrics, keyed by set name.
func (n *Node) Metrics() map[string]SetMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]SetMetrics, len(n.metrics))
	for name, m := range n.metrics {
		out[name] = *m
	}
	return out
}

// Converged reports whether every hosted Sync set's last round found
// all probed peers fingerprint-identical, sustained for at least streak
// consecutive rounds. Sets that have not completed a round yet report
// false, and so does a node hosting no Sync set.
func (n *Node) Converged(streak uint64) bool {
	names := n.syncSets()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, name := range names {
		m := n.metrics[name]
		if m == nil || m.Streak < streak {
			return false
		}
	}
	return len(names) > 0
}

// syncSets returns the names of the hosted sets that maintain Sync
// state, the ones the reconciler converges.
func (n *Node) syncSets() []string {
	names := n.store.Names()
	out := names[:0]
	for _, name := range names {
		if ls, ok := n.store.Get(name); ok {
			if _, sync := ls.SyncConfig(); sync {
				out = append(out, name)
			}
		}
	}
	return out
}

// ReconcileOnce runs one full anti-entropy round: every hosted Sync set
// probes Choices random peers and reconciles with the most divergent
// non-matching one. It returns the number of sets that exchanged state
// (0 when the whole mesh round was no-ops) and the first error
// encountered (the round still visits every set).
func (n *Node) ReconcileOnce() (repaired int, err error) {
	// Quarantine spans are measured in rounds; advance them first so a
	// span armed R rounds ago goes half-open exactly at round R.
	n.health.tick()
	// Selection phase, strictly sequential in set order: round
	// accounting, backoff, and — crucially — every peer-selection RNG
	// draw happen here, before any network traffic, so the probe
	// schedule for a given seed is identical whether the execution
	// phase below runs sequentially or pipelined.
	type setJob struct {
		name    string
		ls      *live.Set
		m       *SetMetrics
		peers   []string
		handoff bool
	}
	var jobs []setJob
	for _, name := range n.syncSets() {
		ls, ok := n.store.Get(name)
		if !ok {
			continue // dropped mid-round
		}
		m := n.metricsFor(name)
		n.mu.Lock()
		m.Rounds++
		skip := m.Backoff > 0
		if skip {
			m.Backoff--
			m.Skipped++
			m.Streak = 0
		}
		// Peer pool: the set's co-owner replica group when placement
		// manages it, the whole mesh otherwise. A relinquishing set
		// probes ALL owners — the handoff confirmation needs every one
		// of them, not a d-sample.
		coOwners, managed := n.owners[name]
		handoff := n.relinquish[name]
		var peers []string
		switch {
		case handoff:
			peers = append([]string(nil), coOwners...)
		case managed:
			peers = n.pickFromLocked(coOwners, n.cfg.Choices)
		default:
			peers = n.pickFromLocked(n.peers, n.cfg.Choices)
		}
		n.mu.Unlock()
		if handoff && ls.Size() == 0 {
			// Nothing to hand off: an empty set the ring moved away
			// drops without ceremony.
			n.dropHandedOff(name)
			continue
		}
		if skip || len(peers) == 0 {
			if managed && !handoff && !skip && len(peers) == 0 {
				// Sole owner (R clamped to 1 live member): trivially
				// converged with its whole replica group.
				n.mu.Lock()
				m.Noops++
				m.Streak++
				n.mu.Unlock()
			}
			continue
		}
		jobs = append(jobs, setJob{name, ls, m, peers, handoff})
	}

	// Execution phase: probe + escalate per set. Pipeline > 1 overlaps
	// sets' sessions — they share per-peer carriers, so stream k+1's
	// hello is in flight while stream k drains and the round's wall
	// clock is the deepest set's RTTs, not the sum.
	type setResult struct {
		exchanged bool
		err       error
	}
	results := make([]setResult, len(jobs))
	if width := min(n.cfg.Pipeline, len(jobs)); width <= 1 {
		for i, j := range jobs {
			results[i].exchanged, results[i].err = n.reconcileSet(j.name, j.ls, j.m, j.peers, j.handoff)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					j := jobs[i]
					results[i].exchanged, results[i].err = n.reconcileSet(j.name, j.ls, j.m, j.peers, j.handoff)
				}
			}()
		}
		wg.Wait()
	}
	// Aggregate in job (set) order, so the reported first error does
	// not depend on scheduling.
	for _, r := range results {
		if r.exchanged {
			repaired++
		}
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	return repaired, err
}

// reconcileSet runs one set's round against its selected candidate
// peers: probe all, then escalate against the most divergent. It
// reports whether state was exchanged and the first error encountered.
// With handoff set the peers are the set's full owner group and a
// round where every owner answered with a matching fingerprint
// completes the handoff by dropping the local copy.
func (n *Node) reconcileSet(name string, ls *live.Set, m *SetMetrics, peers []string, handoff bool) (exchanged bool, err error) {
	// Probe phase: cheap divergence estimate per candidate peer.
	type candidate struct {
		addr  string
		probe *netproto.ProbeInitiator
	}
	var (
		worst      *candidate
		worstScore = -1
		failures   int
	)
	for _, addr := range peers {
		// ReconcileOnce picks Sync sets only, which a probe accepts.
		probe, _ := netproto.NewProbeInitiator(ls)
		start := time.Now()
		perr := n.do(addr, name, probe)
		n.mu.Lock()
		m.Probes++
		if perr != nil {
			m.ProbeFailures++
			failures++
			n.mu.Unlock()
			n.health.reportFailure(addr)
			n.cfg.Logf("cluster: set %q probe %s: %v", name, addr, perr)
			if err == nil {
				err = perr
			}
			continue
		}
		n.mu.Unlock()
		n.health.reportSuccess(addr, time.Since(start))
		if probe.Matched {
			continue
		}
		// Fingerprints that differ while the estimator sees nothing
		// are still divergent, minimally scored.
		score := max(probe.Estimate, 1)
		if score > worstScore {
			worstScore = score
			worst = &candidate{addr: addr, probe: probe}
		}
	}

	n.mu.Lock()
	if failures == len(peers) {
		// Every candidate unreachable: back off this set.
		m.applyBackoff()
		n.mu.Unlock()
		return false, err
	}
	if worst == nil {
		// All reachable peers matched. The streak only advances when
		// every probed peer answered — an unreachable member is not
		// evidence of convergence, and Converged() must not report a
		// clean mesh while one (see SetMetrics.Streak).
		m.Noops++
		if failures == 0 {
			m.Streak++
		} else {
			m.Streak = 0
		}
		m.backoff = 0
		n.mu.Unlock()
		if handoff && failures == 0 {
			// Every owner answered and matched: they provably hold
			// everything this copy holds (repair is a union exchange, so
			// fingerprint equality is content equality). Handoff done.
			n.dropHandedOff(name)
		}
		return false, err
	}
	m.Streak = 0
	m.LastEstimate = worst.probe.Estimate
	n.mu.Unlock()

	if rerr := n.reconcile(name, ls, m, worst.addr, worst.probe); rerr != nil {
		n.mu.Lock()
		m.RepairFailures++
		m.applyBackoff()
		n.mu.Unlock()
		n.cfg.Logf("cluster: set %q repair %s: %v", name, worst.addr, rerr)
		if err == nil {
			err = rerr
		}
		return false, err
	}
	n.mu.Lock()
	m.backoff = 0
	n.mu.Unlock()
	return true, err
}

// maxBackoff caps the exponential per-set failure backoff, in skipped
// rounds.
const maxBackoff = 8

// applyBackoff doubles (capped at maxBackoff) and arms the skip counter.
// Caller holds n.mu.
func (m *SetMetrics) applyBackoff() {
	next := min(max(m.backoff*2, 1), maxBackoff)
	m.backoff = next
	m.Backoff = next
	m.Streak = 0
}

// reconcile converges the set with one diverged peer: the exact
// repair, its first table sized from the probe's estimate.
func (n *Node) reconcile(name string, ls *live.Set, m *SetMetrics, addr string, probe *netproto.ProbeInitiator) error {
	init, err := netproto.NewRepairInitiator(ls, probe.Estimate)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := n.do(addr, name, init); err != nil {
		// A verify-before-merge rejection is not a transport failure:
		// the peer answered promptly with points that do not hash to
		// the requested IDs. Nothing was merged; the ledger records a
		// corruption verdict (the strongest strike) against the peer.
		var cerr *netproto.CorruptPayloadError
		if errors.As(err, &cerr) {
			n.health.reportCorruption(addr)
			n.mu.Lock()
			m.CorruptRejected++
			n.mu.Unlock()
		} else {
			n.health.reportFailure(addr)
		}
		return err
	}
	n.health.reportSuccess(addr, time.Since(start))
	n.mu.Lock()
	m.Repairs++
	m.PointsSent += uint64(init.Sent)
	m.PointsReceived += uint64(init.Received)
	n.mu.Unlock()
	return nil
}

// do runs one outbound session for h against addr's set namespace
// over the pooled carrier to addr.
func (n *Node) do(addr, set string, h netproto.Handler) error {
	// The deadline is per-peer: 8× the peer's EWMA session RTT
	// (floored, and never looser than the configured SessionTimeout),
	// so one slow peer times out on its own history instead of holding
	// the global two-minute budget (health.go).
	_, err := n.pool.DoTimeout(addr, set, h, n.health.deadline(addr, n.cfg.SessionTimeout))
	return err
}

// NetStats reports the node's outbound connection economy: sessions
// attempted, carriers actually dialed, and carrier reuses.
func (n *Node) NetStats() session.PoolStats { return n.pool.Stats() }

// Prewarm establishes the pooled carrier to every current peer,
// sequentially and in peer order, so a following burst of pipelined
// sessions shares settled connections instead of racing the dials —
// the deterministic harness prewarms before pipelined rounds to keep
// dial traces stable. Unreachable peers are not an error here
// (sessions surface that later).
func (n *Node) Prewarm() {
	for _, addr := range n.Peers() {
		if err := n.pool.Warm(addr); err != nil {
			n.cfg.Logf("cluster: prewarm %s: %v", addr, err)
		}
	}
}

// ResetPool drops every pooled outbound carrier so the next session per
// peer dials fresh (session.MuxPool.Reset). Deterministic harnesses call
// it right after changing connectivity — a severed carrier is otherwise
// detected asynchronously, and detection racing the next use makes the
// dial trace nondeterministic.
func (n *Node) ResetPool() { n.pool.Reset() }

// metricsFor returns (creating if needed) the set's metrics struct.
func (n *Node) metricsFor(name string) *SetMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.metrics[name]
	if m == nil {
		m = &SetMetrics{LastEstimate: -1}
		n.metrics[name] = m
	}
	return m
}

// pickFromLocked draws up to d distinct random peers from the pool
// (the whole mesh, or one set's co-owner group in placement mode). No
// RNG is consumed when the pool already fits within d, so the draw
// schedule for a given seed is stable across pool shapes. Caller holds
// n.mu.
func (n *Node) pickFromLocked(pool []string, d int) []string {
	// Quarantined peers are filtered out first (health.go); eligible
	// returns the pool untouched when nothing is quarantined, so the
	// healthy-path draw schedule is byte-identical to a ledger-free
	// node.
	pool = n.health.eligible(pool)
	if len(pool) == 0 {
		return nil
	}
	if d >= len(pool) {
		out := append([]string(nil), pool...)
		sort.Strings(out)
		return out
	}
	idx := make(map[int]bool, d)
	out := make([]string, 0, d)
	for len(out) < d {
		i := n.src.Intn(len(pool))
		if idx[i] {
			continue
		}
		idx[i] = true
		out = append(out, pool[i])
	}
	return out
}

// String formats a metrics snapshot for log lines. The corrupt counter
// only appears when nonzero, so healthy-mesh log and trace lines are
// unchanged from ledger-free builds.
func (m SetMetrics) String() string {
	s := fmt.Sprintf("rounds=%d noops=%d repairs=%d (fail=%d) pts=%d↑/%d↓ streak=%d",
		m.Rounds, m.Noops, m.Repairs, m.RepairFailures,
		m.PointsSent, m.PointsReceived, m.Streak)
	if m.CorruptRejected > 0 {
		s += fmt.Sprintf(" corrupt=%d", m.CorruptRejected)
	}
	return s
}

// Package scenario is the harness that turns the simnet virtual
// network into whole-stack robustness tests: a Scenario declares a
// multi-node cluster topology, a fault schedule (partitions that heal,
// latency skew, bandwidth caps, drop-at-offset link flaps), and a
// churn workload; Run builds the mesh over one seeded simnet, drives
// anti-entropy rounds sequentially, and checks the built-in invariants
// — every named set converges to fingerprint equality AND to the
// ground-truth union the harness tracked while churning, no connection
// leaks after drain, and a pooled-buffer poison canary.
//
// Determinism: all workload points, peer choices, and fault samples
// derive from the run seed; rounds and the sessions within them are
// driven strictly sequentially from one goroutine; and simnet delivers
// connection events in a reproducible order. The same (scenario, seed)
// therefore yields a byte-identical event trace — which is both the
// replay-debugging story (re-run the seed, get the same failure) and a
// regression check in itself (CI diffs two runs).
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/store/durable"
	"repro/internal/transport"
	"repro/internal/workload"
)

// SetSpec declares one named set. In the default (static) mode every
// node hosts every set; in Gossip mode the set is a catalog entry and
// only its ring-assigned owners host it.
type SetSpec struct {
	// Name is the set's namespace ("" = the default set).
	Name string
	// Base is the number of shared points every node starts with.
	Base int
	// PerNode is the number of node-private extra points (the initial
	// divergence anti-entropy must repair).
	PerNode int
	// EMD, when true, maintains the live EMD sketch too: the mesh must
	// keep its EMD fingerprint converged by exact repair alone.
	EMD bool
	// Capacity bounds the set (default 4096; EMD sketch capacity).
	Capacity int
}

// Fault is one scheduled fault-schedule entry, applied at the start of
// its round. From/To are node indices. The "kill" and "restart" kinds
// require Scenario.Durable: kill crashes node From (listener closed,
// journal abandoned without a final snapshot — exactly what a process
// kill leaves on disk), restart recovers it from its data directory,
// asserts the recovered fingerprints match the kill-time state, and
// rejoins it to the mesh. The "leave" and "join" kinds require
// Scenario.Gossip: leave departs node From gracefully (final push,
// departure announcement, shutdown — its sets move to new owners via
// the ring), join boots a fresh empty-store node in a previously
// departed slot, bootstrapping its member table from node 0 alone.
type Fault struct {
	Round int
	Kind  string // "partition" | "heal" | "latency" | "bandwidth" | "drop" | "flip" | "down" | "up" | "kill" | "restart" | "leave" | "join"

	Groups   [][]int       // partition: node-index groups (unlisted nodes form a remainder group)
	From, To int           // link faults
	Min, Max time.Duration // latency window
	BPS      int64         // bandwidth cap
	Offset   int64         // drop-at-offset / flip-at-offset for the link's next connection
	Count    int           // flip: corruption window length in bytes
}

// Flaky schedules programmatic link flaps: every round below Rounds,
// one random link is armed to drop its next connection at a random
// byte offset in [1, MaxOffset] — both sampled from the run seed — and
// both endpoints drop their pooled carriers, so the link's next session
// dials that connection.
type Flaky struct {
	Rounds    int
	MaxOffset int64
}

// Scenario declares a whole simulation.
type Scenario struct {
	Name string
	Desc string
	// Nodes is the mesh size.
	Nodes int
	// Sets are hosted by every node.
	Sets []SetSpec
	// Rounds caps the anti-entropy rounds driven before the run is
	// declared non-converged.
	Rounds int
	// ChurnRounds is how many initial rounds apply churn (each node,
	// each set: ChurnBatches × {add f0, add f1, remove f0} — the
	// add-wins-safe pattern that never removes a replicated point).
	ChurnRounds int
	// ChurnBatches is the number of churn batches per node/set/round
	// (default 1).
	ChurnBatches int
	// Faults is the scripted fault schedule.
	Faults []Fault
	// Flaky, when set, adds seeded random link flaps on top.
	Flaky *Flaky
	// Streak is how many consecutive all-converged rounds end the run
	// (default 1).
	Streak int
	// Pipeline is each node's in-round reconcile concurrency
	// (cluster.Config.Pipeline; default 1 = strictly sequential). When
	// > 1, the harness prewarms every node's carrier pool before
	// driving, so the dial trace stays deterministic while sessions
	// overlap on the established carriers.
	Pipeline int
	// LatencyMin/LatencyMax, when set, install a per-write latency
	// window on every link of the mesh before any connection is dialed.
	// Scheduled latency faults only affect connections dialed after
	// they apply (a pair freezes its faults at dial time) — build-time
	// installation is what prices long-lived carriers and per-session
	// dials under identical link conditions.
	LatencyMin, LatencyMax time.Duration
	// Durable backs every node's store with a write-ahead journal and
	// epoch snapshots (internal/store/durable) in a per-run temp
	// directory, enabling "kill"/"restart" faults. The directory path
	// never enters the trace, so replay determinism is unaffected.
	Durable bool
	// Gossip shards the mesh: membership is maintained by SWIM-style
	// gossip (internal/gossip) and each set is hosted only by its
	// consistent-hash ring owners (internal/placement). The harness
	// plants initial points only into owners, drives a gossip round
	// before each reconcile round, and judges convergence per replica
	// group: every set on exactly min(Replication, live nodes) hosts,
	// fingerprint-equal, with no handoff pending and no node over the
	// bounded-loads budget. Enables the "leave"/"join" faults.
	Gossip bool
	// Replication is the ring replication factor R (default 3).
	Replication int
	// GossipFanout is the push-pull partners per gossip round
	// (default 2).
	GossipFanout int
	// SuspectRounds is how long suspicion ages before a member is
	// declared dead (default 3).
	SuspectRounds int
	// Choices is the power-of-d probe width per set per round
	// (cluster.Config.Choices; default 2). Exposed so the choices-sweep
	// benchmark can run the same scenario at d=1..4.
	Choices int
	// Byzantine lists node indices that act as corrupting peers: the
	// node serves probes honestly but its repair responder corrupts
	// every outgoing point payload (verify-before-merge on honest
	// initiators must reject every batch), and it never initiates
	// anti-entropy itself — it lurks, poisoning whoever pulls from it.
	// The harness then also requires, on top of convergence: zero
	// corrupt points accepted (the ground-truth check would catch any),
	// at least one corrupt-batch rejection recorded, and every
	// byzantine peer quarantined in every honest node's health ledger
	// at end of run. Requires at least 2 honest nodes; incompatible
	// with Gossip (a byzantine member table is a different threat
	// model, and a later PR).
	Byzantine []int
}

// Result is one run's outcome: the deterministic trace, the round
// convergence was reached (-1 if never), and any invariant failures.
type Result struct {
	Scenario string
	Seed     uint64
	// ConvergedRound is the 0-based round after which every set was
	// fingerprint-equal across all nodes for Streak rounds (-1: never).
	ConvergedRound int
	// RoundsRun is how many rounds executed.
	RoundsRun int
	// Failures lists violated invariants (empty on success; every entry
	// is also a trace line, so trace diffs catch them too).
	Failures []string
	// Dials / Sessions total the mesh's outbound connection economy
	// over the driven rounds (canary excluded): carriers actually
	// dialed vs. sessions run (Sessions >> Dials).
	Dials    uint64
	Sessions uint64
	// Probes totals the mesh's outbound probe sessions over the driven
	// rounds — the denominator of the rounds-to-converge vs probes/round
	// trade the choices sweep measures.
	Probes uint64
	// DialsByRound breaks Dials down per driven round (round 0 includes
	// any prewarm dials). Pooled carriers front-load dialing — steady
	// rounds after the first dial little to nothing; the per-round
	// shape is what the dial-amortization gate asserts on.
	DialsByRound []uint64
	trace        []string
}

// Ok reports whether every invariant held.
func (r *Result) Ok() bool { return len(r.Failures) == 0 }

// Trace returns the deterministic event trace, one line per event.
func (r *Result) Trace() []string { return append([]string(nil), r.trace...) }

// TraceText returns the trace as one newline-joined blob (the byte
// string CI's replay-determinism check diffs).
func (r *Result) TraceText() string { return strings.Join(r.trace, "\n") + "\n" }

// run is the mutable state of one Run.
type run struct {
	sc    Scenario
	seed  uint64
	net   *simnet.Network
	nodes []*cluster.Node // nil entry = node currently killed
	// expected is the ground-truth union per set: base + every node's
	// extras + every churn survivor, maintained as points are planted.
	expected map[string]metric.PointSet
	churnSrc *rng.Source
	flakySrc *rng.Source

	// Durable-scenario state: per-node durable stores rooted under
	// dataDir, kill-time fingerprints for the restart assertion, which
	// nodes came back from disk (for the delta-not-full check), and the
	// network counters of dead incarnations (their pools are gone, but
	// the run totals must still add up).
	dataDir   string
	durables  []*durable.Store
	killFP    map[int]map[string]uint64
	restarted map[int]bool
	netBase   session.PoolStats

	// Gossip-scenario state: nodes that left gracefully (a nil entry in
	// nodes that is NOT a failure at end of run — unless rejoined), and
	// each node's membership handle for trace counters.
	departed map[int]bool
	gossips  []*gossip.Gossip

	// byz marks byzantine node indices (Scenario.Byzantine as a set):
	// excluded from driving, churn, fingerprint comparison, ground
	// truth, and the canary round — they serve sessions, nothing else.
	byz map[int]bool

	traceMu sync.Mutex // tracef is called from network-event goroutines too
	res     *Result
}

const (
	scenarioDim      = 64
	scenarioSyncSeed = 0x51c2
)

// tracef appends one trace line. It must be safe for concurrent use:
// the harness thread owns almost every line, but simnet cut events are
// emitted from whichever goroutine's write crossed the fault (ordered
// deterministically by simnet — before the chunk is delivered — but on
// a different goroutine).
func (r *run) tracef(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.traceMu.Lock()
	r.res.trace = append(r.res.trace, line)
	r.traceMu.Unlock()
}

func (r *run) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Failures = append(r.res.Failures, msg)
	r.tracef("FAIL: %s", msg)
}

func host(i int) string { return fmt.Sprintf("node%d", i) }

// points derives a deterministic point set from the run seed and a
// purpose tag, so every generator stream is independent.
func (r *run) points(n int, tag uint64) metric.PointSet {
	return workload.RandomSet(metric.HammingCube(scenarioDim), n, rng.New(r.seed^tag))
}

// Run executes the scenario over a fresh simnet seeded with seed and
// returns the result; the error is non-nil only for invalid scenarios
// (a failed run returns Ok() == false instead).
func Run(sc Scenario, seed uint64) (*Result, error) {
	if sc.Nodes < 2 {
		return nil, fmt.Errorf("scenario %q: need at least 2 nodes", sc.Name)
	}
	if len(sc.Sets) == 0 {
		return nil, fmt.Errorf("scenario %q: need at least one set", sc.Name)
	}
	if sc.Rounds <= 0 {
		return nil, fmt.Errorf("scenario %q: need a positive round cap", sc.Name)
	}
	if sc.Flaky != nil && sc.Flaky.MaxOffset <= 0 {
		return nil, fmt.Errorf("scenario %q: Flaky.MaxOffset must be positive", sc.Name)
	}
	for _, f := range sc.Faults {
		if (f.Kind == "kill" || f.Kind == "restart") && !sc.Durable {
			return nil, fmt.Errorf("scenario %q: %q fault requires Durable", sc.Name, f.Kind)
		}
		if (f.Kind == "leave" || f.Kind == "join") && !sc.Gossip {
			return nil, fmt.Errorf("scenario %q: %q fault requires Gossip", sc.Name, f.Kind)
		}
		if (f.Kind == "kill" || f.Kind == "restart") && sc.Gossip {
			// A durable restart rejoins via SetPeers; gossip nodes get
			// their peers from the member table. The combination is a
			// later PR, not a silent half-working mode.
			return nil, fmt.Errorf("scenario %q: %q fault is not supported with Gossip", sc.Name, f.Kind)
		}
	}
	if sc.Gossip {
		if sc.Replication <= 0 {
			sc.Replication = 3
		}
		for _, spec := range sc.Sets {
			if spec.Name == "" {
				return nil, fmt.Errorf("scenario %q: Gossip mode needs named sets (the catalog keys on names)", sc.Name)
			}
		}
	}
	if len(sc.Byzantine) > 0 {
		if sc.Gossip {
			return nil, fmt.Errorf("scenario %q: Byzantine nodes are not supported with Gossip", sc.Name)
		}
		seen := make(map[int]bool, len(sc.Byzantine))
		for _, b := range sc.Byzantine {
			if b < 0 || b >= sc.Nodes {
				return nil, fmt.Errorf("scenario %q: byzantine index %d out of range", sc.Name, b)
			}
			if seen[b] {
				return nil, fmt.Errorf("scenario %q: byzantine index %d listed twice", sc.Name, b)
			}
			seen[b] = true
		}
		if sc.Nodes-len(sc.Byzantine) < 2 {
			return nil, fmt.Errorf("scenario %q: need at least 2 honest nodes", sc.Name)
		}
	}
	if sc.Streak <= 0 {
		sc.Streak = 1
	}
	if sc.ChurnBatches <= 0 {
		sc.ChurnBatches = 1
	}
	r := &run{
		sc:       sc,
		seed:     seed,
		net:      simnet.New(seed),
		expected: make(map[string]metric.PointSet),
		churnSrc: rng.New(seed ^ 0xc00c),
		flakySrc: rng.New(seed ^ 0xf1a8),
		res:      &Result{Scenario: sc.Name, Seed: seed, ConvergedRound: -1},
	}
	r.net.OnEvent = func(e simnet.Event) { r.tracef("  net: %s", e) }
	r.tracef("# scenario %s seed %d: %d nodes, %d sets, <=%d rounds", sc.Name, seed, sc.Nodes, len(sc.Sets), sc.Rounds)
	if len(sc.Byzantine) > 0 {
		r.byz = make(map[int]bool, len(sc.Byzantine))
		for _, b := range sc.Byzantine {
			r.byz[b] = true
		}
		r.tracef("byzantine: %v serve corrupted repair payloads and never initiate", sc.Byzantine)
	}
	if sc.Gossip {
		r.departed = make(map[int]bool)
		r.gossips = make([]*gossip.Gossip, sc.Nodes)
	}

	if sc.Durable {
		dir, err := os.MkdirTemp("", "scenario-durable-")
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		r.dataDir = dir
		r.durables = make([]*durable.Store, sc.Nodes)
		r.killFP = make(map[int]map[string]uint64)
		r.restarted = make(map[int]bool)
		defer os.RemoveAll(dir)
	}
	if err := r.buildMesh(); err != nil {
		// Nodes started before the failure hold listeners and accept
		// goroutines; a long-lived caller must not accumulate them.
		for _, n := range r.nodes {
			if n != nil {
				n.Close(0) //nolint:errcheck
			}
		}
		return nil, err
	}
	r.drive()
	r.checkRecovered()
	r.checkGroundTruth()
	r.checkByzantine()
	r.canaryRound()
	r.drain()
	// Snapshot-on-drain, after every node stopped mutating: the next
	// process (there is none — the temp dir dies with the run) would
	// recover with zero replay.
	for _, d := range r.durables {
		if d != nil {
			d.Close() //nolint:errcheck
		}
	}
	return r.res, nil
}

// setCfg builds one spec's live.Config — identical wherever the set is
// instantiated (plant-time, catalog, ground-truth reference), which the
// fingerprint comparisons require.
func setCfg(spec SetSpec) live.Config {
	cfg := live.Config{Sync: &live.SyncConfig{Seed: scenarioSyncSeed}}
	if spec.EMD {
		capacity := spec.Capacity
		if capacity <= 0 {
			capacity = 4096
		}
		p := emd.DefaultParams(metric.HammingCube(scenarioDim), capacity, 4, 7)
		cfg.EMD = &p
	}
	return cfg
}

// addr is node i's dialable address.
func addr(i int) string { return host(i) + ":1" }

// allAddrs lists every node's address in index order.
func (r *run) allAddrs() []string {
	out := make([]string, r.sc.Nodes)
	for i := range out {
		out[i] = addr(i)
	}
	return out
}

// setNames lists the scenario's set names.
func (r *run) setNames() []string {
	out := make([]string, len(r.sc.Sets))
	for i, spec := range r.sc.Sets {
		out[i] = spec.Name
	}
	return out
}

// catalog builds the cluster catalog every gossip node shares.
func (r *run) catalog() []cluster.CatalogSet {
	out := make([]cluster.CatalogSet, len(r.sc.Sets))
	for i, spec := range r.sc.Sets {
		out[i] = cluster.CatalogSet{Name: spec.Name, Config: setCfg(spec)}
	}
	return out
}

// ringOver builds the placement ring the harness-side invariant checks
// use — same inputs as every node's own ApplyPlacement, so the
// assignments agree.
func (r *run) ringOver(members []string) *placement.Ring {
	return placement.New(members, placement.DefaultVNodes, r.seed)
}

// buildMesh plants the stores and starts one cluster node per host.
func (r *run) buildMesh() error {
	if r.sc.LatencyMax > 0 {
		// Base link latency goes in before anything dials: a pair
		// freezes its fault window at dial time, so this is the only
		// ordering under which pooled carriers and per-session dials
		// price the same links.
		for i := 0; i < r.sc.Nodes; i++ {
			for j := i + 1; j < r.sc.Nodes; j++ {
				r.net.SetLatency(host(i), host(j), r.sc.LatencyMin, r.sc.LatencyMax)
			}
		}
		r.tracef("latency: all links %v..%v", r.sc.LatencyMin, r.sc.LatencyMax)
	}
	if r.sc.Gossip {
		return r.buildGossipMesh()
	}
	r.nodes = make([]*cluster.Node, r.sc.Nodes)
	for i := 0; i < r.sc.Nodes; i++ {
		st := store.New()
		if r.sc.Durable {
			d, err := durable.Open(filepath.Join(r.dataDir, host(i)), durable.Options{Fsync: durable.FsyncOff})
			if err != nil {
				return fmt.Errorf("scenario %q: %w", r.sc.Name, err)
			}
			r.durables[i] = d
			st.SetPersister(d)
		}
		for si, spec := range r.sc.Sets {
			base := r.points(spec.Base, uint64(si+1)*0xb45e)
			extras := r.points(spec.PerNode, uint64(si+1)*0xe57a+uint64(i+1)*0x101)
			if _, err := st.Create(spec.Name, setCfg(spec), append(base.Clone(), extras...)); err != nil {
				return fmt.Errorf("scenario %q: %w", r.sc.Name, err)
			}
			// A byzantine node's private extras never reach the honest
			// mesh: it never initiates, and every payload it serves is
			// corrupted and rejected. The honest ground truth excludes
			// them.
			if !r.byz[i] {
				r.expected[spec.Name] = append(r.expected[spec.Name], extras...)
			}
			if i == 0 {
				r.expected[spec.Name] = append(r.expected[spec.Name], base...)
			}
		}
		if err := r.startNode(i, st, nil); err != nil {
			return err
		}
	}
	for i, n := range r.nodes {
		n.SetPeers(r.peersOf(i))
	}
	if r.sc.Pipeline > 1 {
		// Pipelined rounds overlap sessions; establishing every carrier
		// now, sequentially and in node order, keeps the dial events in
		// the trace deterministic when the overlapped sessions start.
		for _, n := range r.nodes {
			n.Prewarm()
		}
		r.tracef("prewarm: pooled carriers established mesh-wide")
	}
	return nil
}

// buildGossipMesh starts the sharded variant: every node boots with an
// empty store plus full-bootstrap gossip seeds, the harness plants each
// set's initial points only into the nodes the ring assigns it to (the
// same assignment every node computes locally), and ApplyPlacement
// wires owner pools before the first round.
func (r *run) buildGossipMesh() error {
	addrs := r.allAddrs()
	asn := r.ringOver(addrs).Assign(r.setNames(), r.sc.Replication, placement.DefaultSlack)
	r.nodes = make([]*cluster.Node, r.sc.Nodes)
	for i := 0; i < r.sc.Nodes; i++ {
		st := store.New()
		for si, spec := range r.sc.Sets {
			owners := asn[spec.Name]
			owner := false
			for _, o := range owners {
				if o == addrs[i] {
					owner = true
					break
				}
			}
			if !owner {
				continue
			}
			base := r.points(spec.Base, uint64(si+1)*0xb45e)
			extras := r.points(spec.PerNode, uint64(si+1)*0xe57a+uint64(i+1)*0x101)
			if _, err := st.Create(spec.Name, setCfg(spec), append(base.Clone(), extras...)); err != nil {
				return fmt.Errorf("scenario %q: %w", r.sc.Name, err)
			}
			r.expected[spec.Name] = append(r.expected[spec.Name], extras...)
			if owners[0] == addrs[i] {
				r.expected[spec.Name] = append(r.expected[spec.Name], base...)
			}
		}
		if err := r.startNode(i, st, addrs); err != nil {
			return err
		}
	}
	for _, n := range r.nodes {
		n.ApplyPlacement()
	}
	budget := r.ringOver(addrs).Capacity(len(r.sc.Sets), r.sc.Replication, placement.DefaultSlack)
	r.tracef("placement: %d sets over %d nodes, R=%d, per-node budget %d",
		len(r.sc.Sets), r.sc.Nodes, r.sc.Replication, budget)
	return nil
}

// startNode builds and starts node i over its store. The cluster seed
// derives only from the run seed and the index, so a restarted
// incarnation makes the same peer choices a never-killed one would. In
// Gossip mode, seeds is the bootstrap member list for a fresh gossip
// instance (full mesh at build, node 0 for a later join).
func (r *run) startNode(i int, st *store.Store, seeds []string) error {
	cfg := cluster.Config{
		Store:          st,
		Network:        "sim",
		Interval:       -1, // harness-driven rounds
		Seed:           r.seed + uint64(i)*0x9e37,
		Choices:        r.sc.Choices,
		DialTimeout:    5 * time.Second,
		SessionTimeout: 30 * time.Second,
		Pipeline:       r.sc.Pipeline,
		Transport:      r.net.Host(host(i)),
	}
	if r.byz[i] {
		// The byzantine node answers probes and gossip honestly but its
		// repair responder ships corrupted point payloads: every point's
		// first coordinate is bumped, so nothing it serves hashes to the
		// IDs the honest initiator asked for.
		cfg.WrapResolver = func(res netproto.Resolver) netproto.Resolver {
			return func(set string, proto netproto.Proto, peerRole netproto.Role) (func() netproto.Handler, bool) {
				f, exists := res(set, proto, peerRole)
				if f != nil && proto == netproto.ProtoRepair && peerRole == netproto.RoleAlice {
					if ls, ok := st.Get(set); ok {
						if cf, err := netproto.NewCorruptingRepairResponderFactory(ls); err == nil {
							return cf, exists
						}
					}
				}
				return f, exists
			}
		}
	}
	if r.sc.Gossip {
		g, err := gossip.New(gossip.Config{
			Self:          addr(i),
			Seeds:         seeds,
			Fanout:        r.sc.GossipFanout,
			SuspectRounds: r.sc.SuspectRounds,
			Seed:          r.seed ^ (0x6055 + uint64(i)*0x101),
		})
		if err != nil {
			return err
		}
		r.gossips[i] = g
		cfg.Membership = g
		cfg.Catalog = r.catalog()
		cfg.Replication = r.sc.Replication
		cfg.PlacementSeed = r.seed
	}
	n, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	if _, err := n.Start(addr(i)); err != nil {
		return err
	}
	r.nodes[i] = n
	return nil
}

// peersOf lists every other node's address.
func (r *run) peersOf(i int) []string {
	var peers []string
	for j := 0; j < r.sc.Nodes; j++ {
		if j != i {
			peers = append(peers, host(j)+":1")
		}
	}
	return peers
}

// applyFaults installs every fault scheduled for the round. In Gossip
// mode a fault round ends with a mesh-wide carrier-pool reset: faults
// sever pooled carriers, and a severed carrier's death is detected
// asynchronously by its read loop — whether the next session sees
// "carrier failed" or a fresh dial would otherwise be a race in the
// trace. (The sharded mesh is what leaves carriers idle across a
// partition: placement reassigns probes within each side, so the cut
// carrier's first use — and the race — happens rounds later, at heal.)
func (r *run) applyFaults(round int) {
	applied := false
	for _, f := range r.sc.Faults {
		if f.Round != round {
			continue
		}
		applied = true
		switch f.Kind {
		case "partition":
			groups := make([][]string, len(f.Groups))
			for gi, g := range f.Groups {
				for _, ni := range g {
					groups[gi] = append(groups[gi], host(ni))
				}
			}
			r.tracef("fault: partition %v", groups)
			r.net.Partition(groups...)
		case "heal":
			r.tracef("fault: heal")
			r.net.Heal()
		case "latency":
			r.tracef("fault: latency %s--%s %v..%v", host(f.From), host(f.To), f.Min, f.Max)
			r.net.SetLatency(host(f.From), host(f.To), f.Min, f.Max)
		case "bandwidth":
			r.tracef("fault: bandwidth %s--%s %dB/s", host(f.From), host(f.To), f.BPS)
			r.net.SetBandwidth(host(f.From), host(f.To), f.BPS)
		case "drop":
			r.tracef("fault: drop %s--%s at offset %d", host(f.From), host(f.To), f.Offset)
			r.net.DropAfter(host(f.From), host(f.To), f.Offset)
		case "flip":
			r.tracef("fault: flip %s--%s at offset %d+%d", host(f.From), host(f.To), f.Offset, f.Count)
			r.net.FlipAfter(host(f.From), host(f.To), f.Offset, f.Count)
		case "down":
			r.tracef("fault: down %s--%s", host(f.From), host(f.To))
			r.net.SetDown(host(f.From), host(f.To), true)
		case "up":
			r.tracef("fault: up %s--%s", host(f.From), host(f.To))
			r.net.SetDown(host(f.From), host(f.To), false)
		case "kill":
			r.killNode(f.From)
		case "restart":
			r.restartNode(f.From)
		case "leave":
			r.leaveNode(f.From)
		case "join":
			r.joinNode(f.From)
		default:
			r.failf("unknown fault kind %q at round %d", f.Kind, f.Round)
		}
	}
	if applied && r.sc.Gossip {
		for _, n := range r.nodes {
			if n != nil {
				n.ResetPool()
			}
		}
		r.tracef("fault: carrier pools reset mesh-wide")
	}
	if fl := r.sc.Flaky; fl != nil && round < fl.Rounds {
		a := r.flakySrc.Intn(r.sc.Nodes)
		b := r.flakySrc.Intn(r.sc.Nodes - 1)
		if b >= a {
			b++
		}
		off := 1 + int64(r.flakySrc.Uint64n(uint64(fl.MaxOffset)))
		r.tracef("fault: flaky drop %s--%s at offset %d", host(a), host(b), off)
		r.net.DropAfter(host(a), host(b), off)
		// The drop arms the link's next connection, and pooled carriers
		// dialed in earlier rounds would carry every later a--b session:
		// reset both endpoints' pools so their next session dials it.
		for _, n := range []*cluster.Node{r.nodes[a], r.nodes[b]} {
			if n != nil {
				n.ResetPool()
			}
		}
	}
}

// killNode crashes node i: record its per-set fingerprints (the ground
// truth recovery must reproduce), close the node, and abandon its
// durable store without a final snapshot — the disk is left exactly as
// a process kill would leave it.
func (r *run) killNode(i int) {
	n := r.nodes[i]
	if n == nil {
		r.failf("kill: node %d is already down", i)
		return
	}
	fps := make(map[string]uint64, len(r.sc.Sets))
	for _, spec := range r.sc.Sets {
		if ls, ok := storeGet(n, spec.Name); ok {
			fps[spec.Name] = ls.IDFingerprint()
		}
	}
	r.killFP[i] = fps
	r.retireNet(n)
	n.Close(0) //nolint:errcheck
	r.durables[i].Crash()
	r.nodes[i] = nil
	r.tracef("fault: kill %s", host(i))
}

// retireNet folds a departing incarnation's connection economy into
// the run totals before its pool disappears.
func (r *run) retireNet(n *cluster.Node) { r.netBase = r.netBase.Add(n.NetStats()) }

// restartNode brings node i back from its data directory: recover the
// store, assert every set's fingerprint equals the kill-time value
// (journal ground truth), and rejoin the mesh. The recovery stats go
// into the trace — replay counts are as deterministic as the mutation
// history that produced them.
func (r *run) restartNode(i int) {
	if r.nodes[i] != nil {
		r.failf("restart: node %d is not down", i)
		return
	}
	d, err := durable.Open(filepath.Join(r.dataDir, host(i)), durable.Options{Fsync: durable.FsyncOff})
	if err != nil {
		r.failf("restart node %d: %v", i, err)
		return
	}
	st := store.New()
	stats, err := d.Recover(st)
	if err != nil {
		r.failf("restart node %d: recover: %v", i, err)
		return
	}
	for _, spec := range r.sc.Sets {
		ls, ok := st.Get(spec.Name)
		if !ok {
			r.failf("restart node %d: set %q not recovered", i, spec.Name)
			continue
		}
		if got, want := ls.IDFingerprint(), r.killFP[i][spec.Name]; got != want {
			r.failf("restart node %d: set %q recovered fingerprint %016x != kill-time %016x", i, spec.Name, got, want)
		}
	}
	st.SetPersister(d)
	r.durables[i] = d
	if err := r.startNode(i, st, nil); err != nil {
		r.failf("restart node %d: %v", i, err)
		return
	}
	r.nodes[i].SetPeers(r.peersOf(i))
	r.restarted[i] = true
	r.tracef("fault: restart %s (recovered %v)", host(i), stats)
}

// leaveNode departs node i gracefully: Leave pushes its state to every
// set's co-owners, spreads the departure announcement, and shuts the
// node down. Its slot stays empty (departed) unless a later "join"
// fault reuses it.
func (r *run) leaveNode(i int) {
	n := r.nodes[i]
	if n == nil {
		r.failf("leave: node %d is already down", i)
		return
	}
	r.tracef("fault: leave %s", host(i))
	if err := n.Leave(2 * time.Second); err != nil {
		r.failf("leave node %d: %v", i, err)
	}
	r.retireNet(n)
	r.nodes[i] = nil
	r.gossips[i] = nil
	r.departed[i] = true
	r.quiesce() // Leave ran sessions against the whole mesh; settle them
}

// joinNode boots a fresh node with an empty store in a departed slot,
// seeding its member table from node 0 alone — the realistic bootstrap:
// a joiner knows one long-lived address, pulls the full table in its
// first exchange (refuting its own stale left/dead entry by incarnation
// along the way), and only then computes a placement from the complete
// view. The harness deliberately skips the build-time ApplyPlacement
// here: the node's first GossipOnce applies placement after the table
// sync, so it never acts on the two-member bootstrap view.
func (r *run) joinNode(i int) {
	if r.nodes[i] != nil {
		r.failf("join: node %d is not down", i)
		return
	}
	if err := r.startNode(i, store.New(), []string{addr(0)}); err != nil {
		r.failf("join node %d: %v", i, err)
		return
	}
	delete(r.departed, i)
	r.tracef("fault: join %s (seeded from %s)", host(i), host(0))
}

// churn applies the add-wins-safe churn pattern on every node and set,
// extending the ground-truth union with the surviving point of each
// batch (the removed point dies inside its own batch and is never
// replicated).
func (r *run) churn(round int) {
	churned := 0
	for i, n := range r.nodes {
		if n == nil || r.byz[i] {
			continue // killed nodes churn nothing; byzantine nodes lurk
		}
		for si, spec := range r.sc.Sets {
			ls, ok := storeGet(n, spec.Name)
			if !ok {
				if r.sc.Gossip {
					continue // non-owners legitimately don't host the set
				}
				r.failf("node %d lost set %q", i, spec.Name)
				continue
			}
			churned++
			for b := 0; b < r.sc.ChurnBatches; b++ {
				fresh := r.points(2, 0xcafe+uint64(round)*0x10000+uint64(i)*0x100+uint64(si)*0x10+uint64(b))
				err := ls.ApplyBatch([]live.Op{
					{Point: fresh[0]},
					{Point: fresh[1]},
					{Remove: true, Point: fresh[0]},
				})
				if err != nil {
					r.failf("churn round %d node %d set %q: %v", round, i, spec.Name, err)
					continue
				}
				r.expected[spec.Name] = append(r.expected[spec.Name], fresh[1])
			}
		}
	}
	if r.sc.Gossip {
		r.tracef("churn: %d hosted (node,set) pairs x %d batches", churned, r.sc.ChurnBatches)
	} else {
		r.tracef("churn: %d nodes x %d sets x %d batches", len(r.nodes), len(r.sc.Sets), r.sc.ChurnBatches)
	}
}

// storeGet resolves a node's named set.
func storeGet(n *cluster.Node, name string) (*live.Set, bool) {
	return n.Store().Get(name)
}

// quiesce waits for every node's server to finish all accepted
// sessions, so state reads and the next sessions see settled sets.
func (r *run) quiesce() {
	for _, n := range r.nodes {
		if n != nil {
			n.Quiesce()
		}
	}
}

// fingerprintLine summarizes cross-node per-set fingerprints for the
// trace and reports whether every set matches everywhere.
func (r *run) fingerprintLine() (string, bool) {
	var b strings.Builder
	all := true
	for si, spec := range r.sc.Sets {
		var fp uint64
		match, first := true, true
		for i, n := range r.nodes {
			if n == nil || r.byz[i] {
				continue // killed and byzantine nodes sit out the comparison
			}
			ls, ok := storeGet(n, spec.Name)
			if !ok {
				match = false
				continue
			}
			f := ls.IDFingerprint()
			if first {
				fp, first = f, false
			} else if f != fp {
				match = false
			}
		}
		if si > 0 {
			b.WriteString(" ")
		}
		name := spec.Name
		if name == "" {
			name = "<default>"
		}
		if match {
			fmt.Fprintf(&b, "%s=%016x", name, fp)
		} else {
			fmt.Fprintf(&b, "%s=DIVERGED", name)
			all = false
		}
	}
	return b.String(), all
}

// gossipLine is the sharded-mode convergence summary: each set must be
// hosted by exactly min(Replication, live nodes) hosts with equal
// fingerprints, and no node may have a handoff pending. The per-set
// field shows fingerprint/hostcount; a trailing "!" flags a wrong host
// count, and a handoff=N field appears while relinquishes are pending.
func (r *run) gossipLine() (string, bool) {
	live, pending := 0, 0
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		live++
		pending += n.Placement().Relinquishing
	}
	want := r.sc.Replication
	if want > live {
		want = live
	}
	all := pending == 0
	var b strings.Builder
	for si, spec := range r.sc.Sets {
		hosts := 0
		var fp uint64
		match, first := true, true
		for _, n := range r.nodes {
			if n == nil {
				continue
			}
			ls, ok := storeGet(n, spec.Name)
			if !ok {
				continue
			}
			hosts++
			f := ls.IDFingerprint()
			if first {
				fp, first = f, false
			} else if f != fp {
				match = false
			}
		}
		if si > 0 {
			b.WriteString(" ")
		}
		switch {
		case !match:
			fmt.Fprintf(&b, "%s=DIVERGED/%d", spec.Name, hosts)
			all = false
		case hosts != want:
			fmt.Fprintf(&b, "%s=%016x/%d!", spec.Name, fp, hosts)
			all = false
		default:
			fmt.Fprintf(&b, "%s=%016x/%d", spec.Name, fp, hosts)
		}
	}
	if pending > 0 {
		fmt.Fprintf(&b, " handoff=%d", pending)
	}
	return b.String(), all
}

// stateLine picks the mode's convergence summary.
func (r *run) stateLine() (string, bool) {
	if r.sc.Gossip {
		return r.gossipLine()
	}
	return r.fingerprintLine()
}

// gossipRound drives one membership round across the mesh and traces
// the aggregate: exchange economy plus the min/max active-member count
// every node currently believes (they converge to live/live).
func (r *run) gossipRound() {
	exchanged, failed, changed := 0, 0, 0
	minActive, maxActive, total := -1, 0, 0
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		st := n.GossipOnce()
		exchanged += st.Exchanged
		failed += st.Failed
		if st.Changed {
			changed++
		}
		if minActive < 0 || st.Active < minActive {
			minActive = st.Active
		}
		if st.Active > maxActive {
			maxActive = st.Active
		}
		total = st.Total
	}
	r.quiesce() // responder-side merges finish before anyone reads tables
	if minActive < 0 {
		minActive = 0
	}
	r.tracef("gossip: %d exchanged, %d failed, %d tables changed, active %d..%d of %d",
		exchanged, failed, changed, minActive, maxActive, total)
}

// drive runs the scheduled rounds until the convergence streak or the
// round cap.
func (r *run) drive() {
	streak := 0
	// The streak only counts once churn is done AND every scheduled
	// fault has been applied: a mesh that looks converged at round 3
	// must not end a run whose partition is scheduled for round 4.
	minConverge := r.sc.ChurnRounds
	for _, f := range r.sc.Faults {
		if f.Round > minConverge {
			minConverge = f.Round
		}
	}
	for round := 0; round < r.sc.Rounds; round++ {
		r.res.RoundsRun = round + 1
		r.tracef("[round %03d]", round)
		r.applyFaults(round)
		if round < r.sc.ChurnRounds {
			r.churn(round)
		}
		if r.sc.Gossip {
			r.gossipRound()
		}
		for i, n := range r.nodes {
			if n == nil {
				r.tracef("node %d: down", i)
				continue
			}
			if r.byz[i] {
				// A byzantine node never initiates: it lurks, serving
				// corrupted repair payloads to whoever pulls from it.
				r.tracef("node %d: byzantine (lurking)", i)
				continue
			}
			repaired, err := n.ReconcileOnce()
			// Barrier: a repair responder applies its merge after the
			// initiator's session returned, so the next node's round (and
			// the fingerprint line below) must wait for every server to
			// settle or the trace races the mesh's own goroutines.
			r.quiesce()
			if err != nil {
				r.tracef("node %d: reconcile repaired=%d err: %v", i, repaired, err)
			} else {
				r.tracef("node %d: reconcile repaired=%d", i, repaired)
			}
		}
		line, converged := r.stateLine()
		r.tracef("state: %s", line)
		if len(r.byz) > 0 {
			// Conviction progress: how many honest ledgers hold every
			// byzantine peer quarantined, and the mesh-wide count of
			// rejected corrupt batches. States and counters only — EWMA
			// scores and RTTs are wall-clock-tainted and must stay out
			// of the trace.
			r.tracef("health: byz-quarantined %d/%d honest ledgers, corrupt-rejections %d",
				r.byzConvictedCount(), r.honestCount(), r.corruptRejections())
			converged = converged && r.byzConvicted()
		}
		dialed := r.netBase.Dials
		for _, n := range r.nodes {
			if n != nil {
				dialed += n.NetStats().Dials
			}
		}
		for _, prev := range r.res.DialsByRound {
			dialed -= prev
		}
		r.res.DialsByRound = append(r.res.DialsByRound, dialed)
		if converged && round >= minConverge {
			streak++
			if streak >= r.sc.Streak {
				r.res.ConvergedRound = round
				r.tracef("converged: round %d (streak %d)", round, streak)
				break
			}
		} else {
			streak = 0
		}
	}
	if r.res.ConvergedRound < 0 {
		r.failf("not converged after %d rounds", r.res.RoundsRun)
	}
	// Per-set metrics, sorted, once the mesh settles: a deterministic
	// summary that widens the trace's nondeterminism-detection surface.
	for i, n := range r.nodes {
		if n == nil {
			continue
		}
		m := n.Metrics()
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			display := name
			if display == "" {
				display = "<default>"
			}
			r.res.Probes += m[name].Probes
			r.tracef("metrics: node %d set %s: %v", i, display, m[name])
		}
	}
	// Connection economy across the mesh: under pooled carriers the
	// dial count stays near the peer-pair count while sessions grow
	// with rounds × sets. The line is part of the trace, so a
	// regression in reuse (an accidentally re-dialing pool, a carrier
	// dropped per round) shows up as a trace diff, not just a slower
	// run.
	total := r.netBase
	for _, n := range r.nodes {
		if n != nil {
			total = total.Add(n.NetStats())
		}
	}
	r.res.Dials, r.res.Sessions = total.Dials, total.Sessions
	r.tracef("net: %s", total)
}

// checkRecovered asserts the durable-recovery convergence economy:
// every restarted node re-converged via delta repair, not a full
// transfer — the points it received after restart are bounded by what
// it could actually have missed (everything planted beyond the shared
// base), and a full-set transfer of base plus extras would blow the
// bound.
func (r *run) checkRecovered() {
	for i := range r.nodes {
		if r.nodes[i] == nil && !r.departed[i] {
			r.failf("node %d still down at end of run", i)
		}
	}
	for i := range r.restarted {
		n := r.nodes[i]
		if n == nil {
			continue
		}
		m := n.Metrics()
		for _, spec := range r.sc.Sets {
			bound := uint64(len(r.expected[spec.Name]) - spec.Base)
			if got := m[spec.Name].PointsReceived; got > bound {
				r.failf("restarted node %d set %q received %d points, delta bound %d (full transfer?)",
					i, spec.Name, got, bound)
			}
		}
	}
	if len(r.restarted) > 0 {
		r.tracef("recovery: %d restarted nodes re-converged within the delta bound", len(r.restarted))
	}
}

// checkGroundTruth verifies every node's every set equals the union the
// harness planted: same distinct count, same ID fingerprint. In Gossip
// mode only the hosting owners are compared (non-owners legitimately
// don't carry the set) and checkPlacement then pins hosting to the
// exact ring assignment.
func (r *run) checkGroundTruth() {
	for _, spec := range r.sc.Sets {
		// A reference set built straight from the planted union is the
		// ground truth: same Sync seed, so fingerprints are comparable.
		ref, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: scenarioSyncSeed}}, r.expected[spec.Name])
		if err != nil {
			r.failf("ground-truth set %q: %v", spec.Name, err)
			continue
		}
		fp, distinct := ref.IDFingerprint(), ref.Distinct()
		for i, n := range r.nodes {
			if n == nil || r.byz[i] {
				// Down nodes already failed in checkRecovered; byzantine
				// nodes are permanently divergent by design.
				continue
			}
			ls, ok := storeGet(n, spec.Name)
			if !ok {
				if r.sc.Gossip {
					continue // non-owners checked by checkPlacement
				}
				r.failf("node %d lost set %q", i, spec.Name)
				continue
			}
			if got := ls.IDFingerprint(); got != fp {
				r.failf("node %d set %q fingerprint %016x != ground-truth union %016x", i, spec.Name, got, fp)
			}
			if got := ls.Distinct(); got != distinct {
				r.failf("node %d set %q has %d distinct points, ground truth %d", i, spec.Name, got, distinct)
			}
		}
	}
	r.tracef("ground truth: %d sets checked against planted unions", len(r.sc.Sets))
	if r.sc.Gossip {
		r.checkPlacement()
	}
}

// honestCount is the number of live, non-byzantine nodes.
func (r *run) honestCount() int {
	c := 0
	for i, n := range r.nodes {
		if n != nil && !r.byz[i] {
			c++
		}
	}
	return c
}

// byzConvictedCount counts honest nodes whose health ledger holds
// every byzantine peer quarantined.
func (r *run) byzConvictedCount() int {
	c := 0
	for i, n := range r.nodes {
		if n == nil || r.byz[i] {
			continue
		}
		hs := n.PeerHealths()
		all := true
		for _, b := range r.sc.Byzantine {
			if hs[addr(b)].State != cluster.PeerQuarantined {
				all = false
				break
			}
		}
		if all {
			c++
		}
	}
	return c
}

// byzConvicted reports whether every honest ledger has convicted every
// byzantine peer — the extra convergence condition for byzantine runs.
func (r *run) byzConvicted() bool { return r.byzConvictedCount() == r.honestCount() }

// corruptRejections sums verify-before-merge rejections across every
// honest node's every set.
func (r *run) corruptRejections() uint64 {
	var total uint64
	for i, n := range r.nodes {
		if n == nil || r.byz[i] {
			continue
		}
		for _, m := range n.Metrics() {
			total += m.CorruptRejected
		}
	}
	return total
}

// checkByzantine is the robustness acceptance invariant: corrupt
// repair payloads were actually served and rejected (the scenario
// exercised the verify path, it didn't just route around the byzantine
// peer), and every honest node's ledger ends with every byzantine peer
// quarantined.
func (r *run) checkByzantine() {
	if len(r.byz) == 0 {
		return
	}
	rejected := r.corruptRejections()
	if rejected == 0 {
		r.failf("byzantine run ended with zero corrupt-batch rejections: verify path never exercised")
	}
	for i, n := range r.nodes {
		if n == nil || r.byz[i] {
			continue
		}
		hs := n.PeerHealths()
		for _, b := range r.sc.Byzantine {
			if st := hs[addr(b)].State; st != cluster.PeerQuarantined {
				r.failf("node %d ledger holds byzantine %s in state %v, want quarantined", i, host(b), st)
			}
		}
	}
	if rejected > 0 && r.byzConvicted() {
		r.tracef("byzantine: ok (%d corrupt batches rejected; %d peers quarantined on all %d honest ledgers)",
			rejected, len(r.byz), r.honestCount())
	}
}

// checkPlacement is the sharding acceptance invariant: the harness
// recomputes the ring over the final live member list (same inputs the
// nodes use) and requires every set to be hosted by exactly its
// assigned owners — no stragglers, no freeloaders — with every node at
// or under the bounded-loads budget.
func (r *run) checkPlacement() {
	var liveAddrs []string
	for i, n := range r.nodes {
		if n != nil {
			liveAddrs = append(liveAddrs, addr(i))
		}
	}
	ring := r.ringOver(liveAddrs)
	asn := ring.Assign(r.setNames(), r.sc.Replication, placement.DefaultSlack)
	for _, spec := range r.sc.Sets {
		ownerOf := map[string]bool{}
		for _, o := range asn[spec.Name] {
			ownerOf[o] = true
		}
		for i, n := range r.nodes {
			if n == nil {
				continue
			}
			_, hosted := storeGet(n, spec.Name)
			switch {
			case hosted && !ownerOf[addr(i)]:
				r.failf("node %d hosts set %q but the ring assigns it elsewhere (%v)", i, spec.Name, asn[spec.Name])
			case !hosted && ownerOf[addr(i)]:
				r.failf("node %d is an owner of set %q but does not host it", i, spec.Name)
			}
		}
	}
	rf := r.sc.Replication
	if rf > len(liveAddrs) {
		rf = len(liveAddrs)
	}
	budget := ring.Capacity(len(r.sc.Sets), rf, placement.DefaultSlack)
	maxLoad := 0
	for i, n := range r.nodes {
		if n == nil {
			continue
		}
		if c := len(n.Store().Names()); c > budget {
			r.failf("node %d hosts %d sets, bounded-loads budget %d", i, c, budget)
		} else if c > maxLoad {
			maxLoad = c
		}
	}
	r.tracef("placement: ok (%d live nodes, max load %d of budget %d)", len(liveAddrs), maxLoad, budget)
}

// canaryRound is the pooled-buffer ownership check: poison a batch of
// pooled encoders (whose backing arrays are the recycled buffers of the
// run's sessions), hold them across one extra full anti-entropy round,
// and require the round to be all-noops with unchanged fingerprints. A
// handler that kept a reference into a recycled buffer — or recycled
// one it no longer owned — surfaces here as a corrupted frame or a
// diverged set.
func (r *run) canaryRound() {
	if r.res.ConvergedRound < 0 {
		return // nothing meaningful to check against
	}
	// The canary round asserts buffer ownership on a clean network: an
	// armed drop waiting on a link that was never dialed again, a link
	// a scripted schedule left down, or an unhealed partition would
	// all be mislabeled as canary failures.
	r.net.ClearFaults()
	before, ok := r.stateLine()
	if !ok {
		r.failf("canary: mesh diverged before the canary round")
		return
	}
	release := PoisonPool(16, 4096)
	for i, n := range r.nodes {
		if n == nil || r.byz[i] {
			continue
		}
		if _, err := n.ReconcileOnce(); err != nil {
			r.failf("canary: node %d round errored: %v", i, err)
		}
		r.quiesce()
	}
	release()
	after, ok := r.stateLine()
	if !ok || after != before {
		r.failf("canary: fingerprints changed under pooled-buffer poison: %s -> %s", before, after)
		return
	}
	r.tracef("canary: ok (poisoned pool, round stayed converged)")
}

// PoisonPool grabs count pooled encoders — whose backing arrays are
// recycled session buffers — and scribbles size bytes of junk into
// each, holding them until the returned release func runs. Any code
// path that kept a reference into pooled memory it no longer owns is
// exposed while the poison is live. Shared by the scenario canary
// round and the mid-stream failure matrix.
func PoisonPool(count, size int) (release func()) {
	junk := make([]byte, size)
	for i := range junk {
		junk[i] = 0xde
	}
	poison := make([]*transport.Encoder, count)
	for i := range poison {
		poison[i] = transport.NewEncoder()
		poison[i].WriteBytes(junk)
	}
	return func() {
		for _, p := range poison {
			data, _ := p.Pack()
			transport.Recycle(p, data) // encoder and poison buffer go back to the pool
		}
	}
}

// drain closes every node with a bounded drain and checks the virtual
// network for leaked connections.
func (r *run) drain() {
	for i, n := range r.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(2 * time.Second); err != nil {
			r.failf("drain: node %d close: %v", i, err)
		}
	}
	if open := r.net.OpenConns(); open != 0 {
		r.failf("drain: %d connection endpoints leaked", open)
	} else {
		r.tracef("drain: ok (0 leaked conns)")
	}
}

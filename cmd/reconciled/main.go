// Command reconciled is the reconciliation daemon: it serves the
// paper's protocols (EMD, Gap) to many concurrent peers over TCP or
// unix sockets through the session engine, and doubles as the matching
// client.
//
// Every serving mode runs one cluster node (internal/cluster): a store
// of named live sets (robustsync epoch-tagged mutable state) behind a
// session server. With -listen alone the node has no peers and hosts
// two sets, each named after the protocol it serves: live-emd, an EMD
// set served with epoch tagging, so returning peers that announce their
// last synced epoch receive only the churned cells, and gap, served
// from the set's cached key payloads. With -mutate M the daemon churns
// M point replacements per second in each; the sketch and key payloads
// follow incrementally.
//
// Server and client derive these two sets' synthetic two-party workload
// — and, critically, their protocol Params — from the same flags,
// standing in for two deployments that share configuration out of
// band. The client dials the set its -proto names, and the session
// header's parameter digest enforces the agreement on every connection.
//
// Usage:
//
//	reconciled -listen :7444                      # serve live-emd, gap
//	reconciled -listen unix:/tmp/reconciled.sock  # same, unix socket
//	reconciled -listen :7444 -mutate 10           # churn 10 point
//	                                              # replacements per second
//	reconciled -connect :7444 -proto live-emd     # two sessions on one
//	                                              # cache: full, then delta
//	reconciled -connect :7444 -proto gap -mutate 1  # against a churning
//	                                              # server: no coverage check
//
// With -cluster the node becomes an anti-entropy mesh member: it hosts
// the named sets of -sets instead, served under their namespaces and
// converging continuously with the listed peers via
// power-of-two-choices probing and escalating repair (see
// internal/cluster). Every member must run the same workload flags and
// the same -sets list; each member's sets start with divergent extra
// points derived from its own -listen address, so a fresh mesh visibly
// converges.
//
//	reconciled -listen :7441 -cluster :7442,:7443 -sets alpha,beta
//
// With -data-dir every serving mode is crash-recoverable: each named
// set keeps a write-ahead journal plus epoch snapshots under the
// directory (see internal/store/durable), -fsync picks the journal
// sync policy (always | batch | off), startup recovers whatever state
// a previous life left behind, and graceful shutdown drains into a
// final snapshot so the next boot replays nothing. A killed process
// restarts from its journal with bit-identical sketches and catches up
// with the mesh through the ordinary delta tiers.
//
//	reconciled -listen :7441 -cluster :7442 -data-dir /var/lib/reconciled
//
// With -join the mesh becomes self-organising: the daemon gossips a
// SWIM-style member table with the listed seed members (any -cluster
// list contributes extra seeds), and a consistent-hash ring over the
// live membership decides which of the -sets shards each member hosts
// (-replication owners per shard; see internal/gossip and
// internal/placement). A member that gains ownership pulls the shard
// through the ordinary repair path; one that loses it drops only
// after handoff confirms every owner holds the content; SIGINT/
// SIGTERM announces a graceful leave so shards move immediately, not
// after a suspicion timeout. Every member must run the same workload
// flags, -sets list, -replication and -seed (the ring's hash family);
// -advertise (default: the -listen address) is the address other
// members dial — the node's gossip identity — so give each member a
// reachable host:port.
//
//	reconciled -listen :7441 -advertise h1:7441 -join h2:7442,h3:7443
//	reconciled -listen :7442 -advertise h2:7442 -join h1:7441 -replication 2
//
// With -admin, in any serving mode, the daemon serves its operator
// surface on a dedicated localhost HTTP listener: set create/drop/list
// with live reconciliation stats, cluster membership/placement/health
// views, a graceful-drain trigger, a Prometheus /metrics endpoint, and
// pprof — see internal/admin and the README's Operations section.
// -config loads any flag from a file of flat "flag: value" lines;
// explicit flags win over file values.
//
//	reconciled -listen :7441 -cluster h2:7441 -admin localhost:7470
//	reconciled -config /etc/reconciled.yaml -listen :7441
//
// On SIGINT/SIGTERM — or a POST to the admin API's /api/v1/drain —
// every serving mode stops accepting, drains in-flight sessions for up
// to -drain, force-closes stragglers, shuts the operator listeners
// down, and prints final stats before exiting.
//
// Workload flags (-d, -n, -k, -noise, -r1, -r2, -seed) must match
// between server and client; -max-sessions and timeouts are local
// tuning.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/durable"
	"repro/internal/workload"
)

type config struct {
	// workload (must agree between server and client)
	d     int
	n     int
	k     int
	noise float64
	r1    float64
	r2    float64
	diff  int
	seed  uint64
	// mutate is the server's churn in mutations per second. A client
	// passes nonzero against a churning server: Gap coverage against
	// the fixture is checkable only while the server does not churn.
	mutate int
	// local tuning
	maxSessions int
	timeout     time.Duration
}

// fixture is the deterministic two-party state both endpoints derive
// from the shared flags.
type fixture struct {
	emdParams emd.Params
	emdSA     metric.PointSet
	emdSB     metric.PointSet

	gapParams gap.Params
	gapSpace  metric.Space
	gapSA     metric.PointSet
	gapSB     metric.PointSet

	// syncSeed seeds the point fingerprints of every cluster set (the
	// exact-ID state probe and repair read).
	syncSeed uint64
}

func newFixture(c config) (*fixture, error) {
	f := &fixture{}
	if c.r2 == 0 {
		c.r2 = float64(c.d)
	}

	emdSpace := metric.HammingCube(c.d)
	inst := workload.NewEMDInstance(emdSpace, c.n, c.k, c.noise, c.seed)
	f.emdParams = emd.DefaultParams(emdSpace, c.n, c.k, c.seed+1)
	f.emdSA, f.emdSB = inst.SA, inst.SB

	f.gapSpace = metric.HammingCube(4 * c.d)
	ginst, err := workload.NewGapInstance(f.gapSpace, c.n, c.k, 1, c.r1, c.r2, c.seed)
	if err != nil {
		return nil, fmt.Errorf("gap instance: %w", err)
	}
	// N bounds both parties: Alice holds n+k points, Bob n+1 (the
	// instance plants one Bob-only point), so budget n+k+1.
	f.gapParams = gap.Params{
		Space: f.gapSpace, N: c.n + c.k + 1, R1: c.r1, R2: c.r2,
		Seed: c.seed + 2,
	}
	f.gapSA, f.gapSB = ginst.SA, ginst.SB

	f.syncSeed = c.seed + 4
	return f, nil
}

// liveState replaces points in the one-member node's live sets through
// mirrors seeded from each set's current points, so it churns a set
// recovered from -data-dir as readily as a fresh one.
type liveState struct {
	mu      sync.Mutex
	src     *rng.Source
	sets    []*live.Set
	spaces  []metric.Space
	mirrors []metric.PointSet
}

func newLiveState(seed uint64, sets []*live.Set, spaces []metric.Space) *liveState {
	st := &liveState{sets: sets, spaces: spaces}
	// A recovered set is past epoch 1: folding the epochs into the seed
	// keeps a restarted churner from redrawing the points its previous
	// life added.
	seed ^= 0xc4a12
	for _, ls := range sets {
		seed += ls.Epoch() - 1
		st.mirrors = append(st.mirrors, ls.Snapshot().Points.Clone())
	}
	st.src = rng.New(seed)
	return st
}

func randomPoint(space metric.Space, src *rng.Source) metric.Point {
	pt := make(metric.Point, space.Dim)
	for i := range pt {
		pt[i] = int32(src.Uint64() % uint64(space.Delta+1))
	}
	return pt
}

// churn performs n point replacements on each live set
// (size-preserving — the EMD model wants equal cardinalities).
func (st *liveState) churn(n int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < n; i++ {
		for j, ls := range st.sets {
			mirror := st.mirrors[j]
			k := int(st.src.Uint64() % uint64(len(mirror)))
			pt := randomPoint(st.spaces[j], st.src)
			if err := ls.ApplyBatch([]live.Op{
				{Remove: true, Point: mirror[k]},
				{Point: pt},
			}); err != nil {
				return err
			}
			mirror[k] = pt
		}
	}
	return nil
}

// options is the daemon's command line: the modes' addresses and
// tuning, and the workload config every mode derives its sets from.
type options struct {
	listen, connect, proto            string
	peers, join, advertise, sets      string
	dataDir, fsync, admin, configPath string
	replication                       int
	interval, drain                   time.Duration
	cfg                               config
}

// defineFlags defines every daemon flag on fs, bound to the returned
// options.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "", "serve on this address (host:port, or unix:/path)")
	fs.StringVar(&o.connect, "connect", "", "run one client session against this address")
	fs.StringVar(&o.proto, "proto", "live-emd", "client protocol, and the set it dials: live-emd | gap")
	fs.StringVar(&o.peers, "cluster", "", "comma-separated peer addresses: join an anti-entropy mesh (needs -listen)")
	fs.StringVar(&o.join, "join", "", "comma-separated gossip seed members: self-organising sharded mesh (needs -listen; any -cluster list adds seeds)")
	fs.StringVar(&o.advertise, "advertise", "", "address other members dial — the gossip identity (default: the -listen address)")
	fs.IntVar(&o.replication, "replication", 3, "owners per shard on the placement ring (gossip mode)")
	fs.StringVar(&o.sets, "sets", "alpha,beta", "named sets hosted in cluster mode (comma-separated)")
	fs.DurationVar(&o.interval, "interval", time.Second, "anti-entropy round period (cluster mode)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain deadline")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (any serving mode): WAL + snapshots, recovery on startup")
	fs.StringVar(&o.fsync, "fsync", "batch", "journal fsync policy with -data-dir: always | batch | off")

	c := &o.cfg
	fs.IntVar(&c.d, "d", 128, "EMD dimension (gap uses 4d)")
	fs.IntVar(&c.n, "n", 64, "points / children per party")
	fs.IntVar(&c.k, "k", 4, "outlier budget")
	fs.Float64Var(&c.noise, "noise", 2, "per-point noise radius (emd)")
	fs.Float64Var(&c.r1, "r1", 8, "close radius (gap)")
	fs.Float64Var(&c.r2, "r2", 0, "far radius (gap; default d)")
	fs.IntVar(&c.diff, "diff", 16, "divergent extra points per member in each cluster set")
	fs.Uint64Var(&c.seed, "seed", 1, "shared public-coin seed")
	fs.IntVar(&c.mutate, "mutate", 0, "live-set churn in mutations/sec (serving modes; a client passes nonzero against a churning server)")

	fs.IntVar(&c.maxSessions, "max-sessions", 64, "concurrent session cap (server)")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Minute, "per-session deadline")
	fs.StringVar(&o.admin, "admin", "", "serve the admin API and /metrics on this address (e.g. localhost:7470)")
	fs.StringVar(&o.configPath, "config", "", "config file of flat \"flag: value\" lines; explicit flags win")
	return o
}

// maxMutate is the fastest churn -mutate may ask for: the churn
// ticker's period, time.Second/mutate, must stay at least 1ns.
const maxMutate = int(time.Second)

// checkOptions rejects a command line no mode can run.
func checkOptions(o *options) error {
	switch {
	case o.listen == "" && o.connect == "":
		return errors.New("need -listen or -connect (see -help)")
	case o.cfg.mutate > maxMutate:
		return fmt.Errorf("-mutate %d: at most %d mutations per second", o.cfg.mutate, maxMutate)
	case o.listen != "" && (o.peers != "" || o.join != "") && len(parseSets(o.sets)) == 0:
		return errors.New("cluster modes need at least one set in -sets")
	}
	return nil
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.configPath != "" {
		// File values fill in whatever the command line left at its
		// default; explicitly passed flags always win.
		if err := applyConfigFile(o.configPath, flag.CommandLine); err != nil {
			fail("%v", err)
		}
	}
	if err := checkOptions(o); err != nil {
		fail("%v", err)
	}
	f, err := newFixture(o.cfg)
	if err != nil {
		fail("%v", err)
	}
	if o.listen != "" {
		serve(o, f)
		return
	}
	network, host := splitAddr(o.connect)
	if err := runClient(o.cfg, f, network, host, o.proto); err != nil {
		fail("%v", err)
	}
}

// daemon is one serving reconciled: a cluster node over its store, with
// the durable layer and the admin server around it when configured.
type daemon struct {
	o    *options
	logf func(string, ...any)

	store *store.Store
	node  *cluster.Node
	dur   *durable.Store // nil without -data-dir
	adm   *admin.Server  // nil without -admin
	// addr is the bound -listen address.
	addr   net.Addr
	gossip bool
	// live churns the one-member node's two fixture sets; nil in the
	// mesh modes.
	live *liveState
	// churn applies one -mutate tick and reports whether churn goes on:
	// point replacements on a one-member node, bounded adds in a mesh.
	churn func() bool
	// drained is closed by the admin API's drain request.
	drained chan struct{}
}

// newDaemon builds what every -listen mode serves — one store and one
// cluster node, with or without peers — and binds -listen and -admin.
// The mode decides the sets: -listen alone hosts the two fixture sets,
// live-emd and gap; -cluster hosts every -sets name; -join the names
// the bootstrap ring assigns here. A set -data-dir recovered is kept as
// it is.
func newDaemon(o *options, f *fixture, logf func(string, ...any)) (*daemon, error) {
	cfg := o.cfg
	network, host := splitAddr(o.listen)
	d := &daemon{o: o, logf: logf, store: store.New(), gossip: o.join != "", drained: make(chan struct{})}
	self := o.advertise
	if self == "" {
		self = o.listen
	}
	if o.dataDir != "" {
		var err error
		if d.dur, err = openDurable(o.dataDir, o.fsync, d.store, logf); err != nil {
			return nil, err
		}
	}
	// A member's identity seeds its peer choices and its sets'
	// divergent fresh-start extras.
	tag := hashAddr(o.listen)
	if d.gossip {
		tag = hashAddr(self)
	}
	content := func(i int) metric.PointSet { return setContent(cfg, i, tag) }
	ccfg := cluster.Config{
		Store:    d.store,
		Peers:    parseSets(o.peers),
		Network:  network,
		Interval: o.interval,
		Seed:     cfg.seed ^ tag,
		Logf:     logf,
		Session: session.Config{
			MaxSessions:    cfg.maxSessions,
			SessionTimeout: cfg.timeout,
			Logf:           logf,
		},
		SessionTimeout: cfg.timeout,
	}
	names := parseSets(o.sets)
	d.churn = d.meshChurn(names)
	var mode string
	switch {
	case d.gossip:
		// The static -cluster list doubles as extra gossip seeds: a
		// mixed invocation bootstraps from both.
		seeds := append(parseSets(o.join), ccfg.Peers...)
		catalog := clusterCatalog(cfg, f, names, gossipCapacityNodes)
		// Fresh-start content goes to the sets the bootstrap ring — self
		// plus the seed members — assigns here. The hosted roster follows
		// the gossiped membership once rounds run: ApplyPlacement creates
		// missing owned sets empty and the repair path fills them, and
		// anything planted here that ownership moves away from reaches
		// its owners through handoff before the local copy drops.
		assign := placement.New(append([]string{self}, seeds...), 0, cfg.seed).Assign(names, o.replication, 0)
		owns := func(name string) bool { return slices.Contains(assign[name], self) }
		if err := createMissing(d.store, catalog, content, owns); err != nil {
			return nil, fmt.Errorf("cluster store: %w", err)
		}
		g, err := gossip.New(gossip.Config{Self: self, Seeds: seeds, Seed: cfg.seed ^ tag, Logf: logf})
		if err != nil {
			return nil, fmt.Errorf("gossip: %w", err)
		}
		// Peer list and hosted roster are gossip-fed from here on; the
		// ring's hash family (PlacementSeed) is the shared -seed flag, so
		// every member computes identical owner sets.
		ccfg.Peers = nil
		ccfg.Membership = g
		ccfg.Catalog = catalog
		ccfg.Replication = o.replication
		ccfg.PlacementSeed = cfg.seed
		mode = fmt.Sprintf("gossip member (%d seeds, %d-shard catalog at R=%d, round every %v)", len(seeds), len(names), o.replication, o.interval)
	case o.peers != "":
		if err := createMissing(d.store, clusterCatalog(cfg, f, names, len(ccfg.Peers)+1), content, nil); err != nil {
			return nil, fmt.Errorf("cluster store: %w", err)
		}
		mode = fmt.Sprintf("cluster member (%d peers, round every %v)", len(ccfg.Peers), o.interval)
	default:
		fixtureSets := []cluster.CatalogSet{
			{Name: netproto.ProtoLiveEMD.String(), Config: live.Config{EMD: &f.emdParams}},
			{Name: netproto.ProtoGap.String(), Config: live.Config{Gap: &f.gapParams}},
		}
		points := []metric.PointSet{f.emdSA, f.gapSA}
		if err := createMissing(d.store, fixtureSets, func(i int) metric.PointSet { return points[i] }, nil); err != nil {
			return nil, err
		}
		var sets []*live.Set
		for _, cs := range fixtureSets {
			ls, _ := d.store.Get(cs.Name)
			sets = append(sets, ls)
		}
		d.live = newLiveState(cfg.seed, sets, []metric.Space{f.emdParams.Space, f.gapSpace})
		// With no peers there is no round to run.
		ccfg.Interval = -1
		d.churn = func() bool {
			if err := d.live.churn(1); err != nil {
				logf("churn: %v", err)
				return false
			}
			return true
		}
		mode = "one-member node"
	}

	var err error
	if d.node, err = cluster.New(ccfg); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	l, err := d.node.Start(host)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.addr = l.Addr()
	logf("%s on %s %s: sets %v, max %d sessions, %d mutations/s; %s",
		mode, network, d.addr, d.store.Names(), cfg.maxSessions, cfg.mutate, d.store.Stats())
	if o.admin == "" {
		return d, nil
	}
	d.adm = admin.New(admin.Config{
		Node:    d.node,
		Durable: d.dur,
		// Admin-created sets get the catalog's shared Sync parameters
		// (identical digest on every member that creates them) plus
		// this member's deterministic divergent seed content, exactly
		// like a flag-declared set's fresh start.
		SetConfig: func(name string, seedPoints int) (live.Config, metric.PointSet, error) {
			c := live.Config{Sync: &live.SyncConfig{Seed: f.syncSeed}}
			var pts metric.PointSet
			if seedPoints > 0 {
				pts = clusterPoints(metric.HammingCube(cfg.d), seedPoints,
					cfg.seed^hashAddr(self)^hashAddr(name))
			}
			return c, pts, nil
		},
		Drain: func() { close(d.drained) },
		Logf:  logf,
	})
	aaddr, err := d.adm.Start(o.admin)
	if err != nil {
		return nil, err
	}
	logf("admin API on http://%s/ (Prometheus on /metrics)", aaddr)
	return d, nil
}

// meshChurn is a mesh member's -mutate tick: one fresh point added to
// each named set it hosts, within a bounded budget. Anti-entropy
// convergence is add-wins: every add spreads to the whole mesh and
// nothing un-spreads, so unbounded churn would grow every member past
// the (digest-relevant, hence fixed) EMD capacity and poison repairs
// mesh-wide. Each member therefore churns a bounded budget the shared
// capacity formula accounts for.
func (d *daemon) meshChurn(names []string) func() bool {
	cfg := d.o.cfg
	src := rng.New(cfg.seed ^ hashAddr(d.o.listen) ^ 0xc4a12)
	space := metric.HammingCube(cfg.d)
	budget := churnBudget(cfg)
	return func() bool {
		if budget <= 0 {
			d.logf("churn budget exhausted (%d adds per set); store %s", churnBudget(cfg), d.store.Stats())
			return false
		}
		budget--
		for _, name := range names {
			ls, ok := d.store.Get(name)
			if !ok {
				continue
			}
			if err := ls.Add(randomPoint(space, src)); err != nil {
				d.logf("churn %q: %v", name, err)
			}
		}
		return true
	}
}

// close drains the daemon: the node stops serving (a gossip member
// announces its leave first), the durable journals seal, the final
// tallies are logged, and the admin listener shuts.
func (d *daemon) close() {
	drain := d.o.drain
	if d.gossip {
		// Graceful departure: final push to co-owners, Left announcement
		// to every active member, then close — shards move immediately
		// instead of after a suspicion timeout.
		d.logf("leaving mesh (drain %v)", drain)
		if err := d.node.Leave(drain); err != nil {
			d.logf("leave: %v", err)
		}
	} else {
		d.logf("closing node (drain %v)", drain)
		if err := d.node.Close(drain); err != nil {
			d.logf("close: %v", err)
		}
	}
	if d.dur != nil {
		// Snapshot-on-drain: seal every journal at its final epoch so the
		// next boot replays nothing.
		if err := d.dur.Close(); err != nil {
			d.logf("durable close: %v", err)
		} else {
			d.logf("durable state drained: final snapshots written to %s", d.o.dataDir)
		}
	}
	if d.gossip {
		p := d.node.Placement()
		d.logf("placement: %d acquired, %d dropped after handoff, %d still relinquishing",
			p.Acquired, p.Dropped, p.Relinquishing)
	}
	for name, m := range d.node.Metrics() {
		d.logf("set %s: %v", name, m)
	}
	srv := d.node.Server()
	total, _ := srv.Stats()
	d.logf("net: %s", d.node.NetStats())
	d.logf("health: %s", d.node.HealthSummary())
	d.logf("final: %d sessions ok, %d failed; %s; max payload %d bits; store %s",
		srv.Served(), srv.Failed(), total, total.MaxPayload(), d.store.Stats())
	if d.adm != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := d.adm.Shutdown(ctx); err != nil {
			d.logf("admin shutdown: %v", err)
		}
	}
}

// serve runs the daemon until SIGINT/SIGTERM or an admin drain request,
// churning its sets at -mutate meanwhile, then drains it.
func serve(o *options, f *fixture) {
	logger := log.New(os.Stderr, "reconciled: ", log.LstdFlags|log.Lmicroseconds)
	d, err := newDaemon(o, f, logger.Printf)
	if err != nil {
		fail("%v", err)
	}
	if o.cfg.mutate > 0 {
		go func() {
			tick := time.NewTicker(time.Second / time.Duration(o.cfg.mutate))
			defer tick.Stop()
			for range tick.C {
				if !d.churn() {
					return
				}
			}
		}()
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Printf("received %v", sig)
	case <-d.drained:
		logger.Printf("drain requested via admin API")
	}
	d.close()
}

func splitAddr(addr string) (network, host string) {
	if strings.HasPrefix(addr, "unix:") {
		return "unix", strings.TrimPrefix(addr, "unix:")
	}
	return "tcp", addr
}

// hashAddr derives a node-unique seed from its advertised address, so
// cluster members launched with identical workload flags still start
// with visibly divergent named sets.
func hashAddr(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr)) //nolint:errcheck
	return h.Sum64()
}

// clusterPoints draws deterministic points for cluster-set content.
func clusterPoints(space metric.Space, n int, seed uint64) metric.PointSet {
	src := rng.New(seed)
	out := make(metric.PointSet, n)
	for i := range out {
		out[i] = randomPoint(space, src)
	}
	return out
}

// churnBudget is the bounded number of churn adds per set a cluster
// member's -mutate ticker may apply; clusterCatalog's capacity formula
// reserves this headroom for every member.
func churnBudget(cfg config) int {
	m := cfg.mutate
	if m < 2 {
		m = 2
	}
	return 4 * m
}

// clusterCatalog is the mesh-wide set catalog every member derives
// from the shared flags: each named set's exact live configuration.
// The static mesh (-cluster) and the gossip placement path (-join)
// both build set configs here, so a set hosted by any member carries
// an identical parameter digest — two owners with different configs
// would never fingerprint-match. nodes is the member budget the
// capacity formula absorbs: capacity must hold the union of the shared
// base, every member's extras, and every member's bounded churn budget
// (see churnBudget), and it is digest-relevant via emd.Params.N — so
// it must derive from flags and an agreed budget, never from a
// member's local view of the topology.
func clusterCatalog(cfg config, f *fixture, names []string, nodes int) []cluster.CatalogSet {
	sync := &live.SyncConfig{Seed: f.syncSeed}
	space := metric.HammingCube(cfg.d)
	capacity := cfg.n + nodes*(cfg.diff+churnBudget(cfg)) + 64
	out := make([]cluster.CatalogSet, len(names))
	for i, name := range names {
		c := live.Config{Sync: sync}
		if i == 0 {
			p := emd.DefaultParams(space, capacity, cfg.k, cfg.seed+9)
			c.EMD = &p
		}
		out[i] = cluster.CatalogSet{Name: name, Config: c}
	}
	return out
}

// setContent is set i's fresh-start points: shared base every member
// agrees on, plus nodeTag-derived divergent extras, so a fresh mesh
// visibly converges.
func setContent(cfg config, i int, nodeTag uint64) metric.PointSet {
	space := metric.HammingCube(cfg.d)
	base := clusterPoints(space, cfg.n, cfg.seed+uint64(i)*31+101)
	extras := clusterPoints(space, cfg.diff, nodeTag+uint64(i)*17+1)
	return append(base, extras...)
}

// gossipCapacityNodes is the agreed member budget gossip-mode
// capacity assumes. Members may pass different -join seed lists and
// the membership grows at runtime, so — unlike the static mesh, where
// len(peers)+1 is flag-derived — the capacity formula cannot depend
// on any local view of the topology. A fixed budget keeps every
// member's catalog identical; it bounds how many distinct members can
// plant fresh-start extras into one set over its lifetime.
const gossipCapacityNodes = 64

// createMissing creates every catalog set that owns accepts (nil
// accepts all) and st does not hold yet, with content(i) as set i's
// fresh-start points. A durable daemon recovers its sets from disk
// first, so only the ones its previous life never created start fresh.
func createMissing(st *store.Store, sets []cluster.CatalogSet, content func(i int) metric.PointSet, owns func(name string) bool) error {
	for i, cs := range sets {
		if _, ok := st.Get(cs.Name); ok || (owns != nil && !owns(cs.Name)) {
			continue
		}
		if _, err := st.Create(cs.Name, cs.Config, content(i)); err != nil {
			return err
		}
	}
	return nil
}

// openDurable opens the durability layer under dir, recovers whatever
// a previous life persisted into st, and attaches the persister so
// every set created from here on is journaled too.
func openDurable(dir, policy string, st *store.Store, logf func(string, ...any)) (*durable.Store, error) {
	if err := checkDataDir(dir); err != nil {
		return nil, err
	}
	pol, err := durable.ParseFsyncPolicy(policy)
	if err != nil {
		return nil, err
	}
	d, err := durable.Open(dir, durable.Options{Fsync: pol, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	stats, err := d.Recover(st)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	st.SetPersister(d)
	logf("durable state in %s (fsync %s): recovered %s", dir, pol, stats)
	return d, nil
}

// checkDataDir refuses a data dir that still holds the default "" set.
// Cluster daemons created that set while they served the since-retired
// sync protocol; nothing serves it now and the admin API cannot drop
// it, so recovering it would probe and repair it every round for
// nothing. Deleting its journal directory is the remedy.
func checkDataDir(dir string) error {
	old := durable.SetDir(dir, "")
	_, err := os.Stat(old)
	switch {
	case err == nil:
		return fmt.Errorf("data dir %s holds the retired default set \"\": delete its journal directory %s to start", dir, old)
	case errors.Is(err, fs.ErrNotExist):
		return nil
	}
	return err
}

func parseSets(csv string) []string {
	var names []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names = append(names, s)
		}
	}
	return names
}

// runClient runs one session of the named protocol against the set of
// the same name and reports the outcome. It returns an error both on
// transport failure and on a result that violates the protocol's
// guarantee, so the exit status is an end-to-end check. live-emd runs
// two sessions on one sketch cache, so the second takes the delta path
// (an empty delta if the server did not churn in between).
func runClient(cfg config, f *fixture, network, addr, proto string) error {
	dial := session.Dialer{Network: network, Addr: addr, Set: proto}
	id, _ := netproto.ProtoByName(proto)
	start := time.Now()
	switch id {
	case netproto.ProtoLiveEMD:
		cache := &netproto.EMDCache{}
		for i := 0; i < 2; i++ {
			h := netproto.NewLiveEMDReceiver(f.emdParams, f.emdSB, cache)
			st, err := dial.Do(h)
			if err != nil {
				return err
			}
			if !h.Result.Failed && len(h.Result.SPrime) != len(f.emdSB) {
				return fmt.Errorf("live-emd: |S'B| = %d, want %d", len(h.Result.SPrime), len(f.emdSB))
			}
			mode := "full"
			if h.UsedDelta {
				mode = "delta"
			}
			fmt.Printf("live-emd: epoch %d via %s transfer, %d points reconciled in %v; %s\n",
				h.Epoch, mode, len(h.Result.SPrime), time.Since(start).Round(time.Millisecond), st)
		}
	case netproto.ProtoGap:
		h := netproto.NewGapReceiver(f.gapParams, f.gapSB)
		if _, err := dial.Do(h); err != nil {
			return err
		}
		if cfg.mutate == 0 {
			// A churning server's canonical set has moved past the
			// fixture, so coverage is only checkable against a still one.
			for _, pt := range f.gapSA {
				if dist, _ := h.Result.SPrime.MinDistanceTo(f.gapSpace, pt); dist > f.gapParams.R2 {
					return fmt.Errorf("gap: uncovered point at distance %v > r2=%v", dist, f.gapParams.R2)
				}
			}
		}
		fmt.Printf("gap: received %d elements in %v; %s\n",
			len(h.Result.TA), time.Since(start).Round(time.Millisecond), h.Result.Stats)
	default:
		return fmt.Errorf("unknown protocol %q (the daemon serves live-emd | gap)", proto)
	}
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reconciled: "+format+"\n", args...)
	os.Exit(2)
}

// Command reconciled is the reconciliation daemon: a member of an
// anti-entropy mesh that hosts named live sets, serves them to peers
// over TCP or unix sockets through the session engine, and converges
// them with those peers. The paper's protocols between two parties run
// in cmd/reconcile (in process) and examples/netsync (over TCP).
//
// Every mode runs one cluster node (internal/cluster): a store of the
// named sets of -sets (robustsync epoch-tagged mutable state) behind a
// session server. Every set serves probe and repair, the exact-ID
// protocols anti-entropy runs on; the first set also keeps an EMD
// sketch (Algorithm 1) and serves live-emd with epoch tagging, so a
// returning client that announces its last synced epoch receives only
// the churned cells. Each set starts with a base every member agrees on
// plus divergent extra points derived from the member's own identity,
// so a fresh mesh visibly converges. With -mutate M the member adds M
// points per second to each set it hosts, up to a bounded budget.
//
// Every member derives its sets' configuration, and so their parameter
// digests, from the same workload flags (-d -n -k -diff -mutate -seed)
// and the same -sets list. A peer whose flags differ is refused at the
// session hello with a digest mismatch.
//
// -listen alone runs a member with no peers, which serves its sets and
// runs no rounds. -cluster lists static peers, with which the node
// converges continuously via power-of-two-choices probing and
// escalating repair (see internal/cluster).
//
//	reconciled -listen :7441                      # no peers: alpha, beta
//	reconciled -listen unix:/tmp/reconciled.sock  # same, unix socket
//	reconciled -listen :7441 -cluster :7442,:7443 -sets alpha,beta
//	reconciled -listen :7441 -cluster :7442 -mutate 10
//
// With -data-dir every mode is crash-recoverable: each named set keeps
// a write-ahead journal plus epoch snapshots under the directory (see
// internal/store/durable), -fsync picks the journal sync policy
// (always | batch | off), startup recovers whatever state a previous
// life left behind, and graceful shutdown drains into a final snapshot
// so the next boot replays nothing. A killed process restarts from its
// journal with bit-identical sketches and catches up with the mesh
// through the ordinary repair tiers.
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
// after a suspicion timeout. Every member must also run the same
// -replication; -advertise (default: the -listen address) is the
// address other members dial, the node's gossip identity, so give each
// member a reachable host:port.
//
//	reconciled -listen :7441 -advertise h1:7441 -join h2:7442,h3:7443
//	reconciled -listen :7442 -advertise h2:7442 -join h1:7441 -replication 2
//
// With -admin the daemon serves its operator surface on a dedicated
// localhost HTTP listener: set create/drop/list with live
// reconciliation stats, cluster membership/placement/health views, a
// graceful-drain trigger, a Prometheus /metrics endpoint, and pprof;
// see internal/admin and the README's Operations section. -config
// loads any flag from a file of flat "flag: value" lines; explicit
// flags win over file values.
//
//	reconciled -listen :7441 -cluster h2:7441 -admin localhost:7470
//	reconciled -config /etc/reconciled.yaml -listen :7441
//
// On SIGINT/SIGTERM, or a POST to the admin API's /api/v1/drain, the
// daemon stops accepting, drains in-flight sessions for up to -drain,
// force-closes stragglers, shuts the operator listeners down, and
// prints final stats before exiting. -max-sessions and -timeout are
// local tuning.
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
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/durable"
)

type config struct {
	// workload (must agree between members)
	d    int
	n    int
	k    int
	diff int
	seed uint64
	// mutate is the churn in adds per second to each hosted set.
	mutate int
	// local tuning
	maxSessions int
	timeout     time.Duration
}

// options is the daemon's command line: the modes' addresses and
// tuning, and the workload config every mode derives its sets from.
type options struct {
	listen, peers, join, advertise, sets string
	dataDir, fsync, admin, configPath    string
	replication                          int
	interval, drain                      time.Duration
	cfg                                  config
}

// defineFlags defines every daemon flag on fs, bound to the returned
// options.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "", "serve on this address (host:port, or unix:/path)")
	fs.StringVar(&o.peers, "cluster", "", "comma-separated static peer addresses to converge with")
	fs.StringVar(&o.join, "join", "", "comma-separated gossip seed members: self-organising sharded mesh (any -cluster list adds seeds)")
	fs.StringVar(&o.advertise, "advertise", "", "address other members dial — the gossip identity (default: the -listen address)")
	fs.IntVar(&o.replication, "replication", 3, "owners per shard on the placement ring (gossip mode)")
	fs.StringVar(&o.sets, "sets", "alpha,beta", "named sets every member hosts (comma-separated; the first keeps an EMD sketch)")
	fs.DurationVar(&o.interval, "interval", time.Second, "anti-entropy round period (with peers)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain deadline")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory: WAL + snapshots, recovery on startup")
	fs.StringVar(&o.fsync, "fsync", "batch", "journal fsync policy with -data-dir: always | batch | off")

	c := &o.cfg
	fs.IntVar(&c.d, "d", 128, "point dimension of every set")
	fs.IntVar(&c.n, "n", 64, "shared base points per set")
	fs.IntVar(&c.k, "k", 4, "outlier budget of the EMD set")
	fs.IntVar(&c.diff, "diff", 16, "divergent extra points per member in each set")
	fs.Uint64Var(&c.seed, "seed", 1, "shared public-coin seed")
	fs.IntVar(&c.mutate, "mutate", 0, "churn in adds per second to each hosted set, up to a bounded budget")

	fs.IntVar(&c.maxSessions, "max-sessions", 64, "concurrent session cap")
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
	case o.listen == "":
		return errors.New("need -listen (see -help)")
	case o.cfg.mutate > maxMutate:
		return fmt.Errorf("-mutate %d: at most %d mutations per second", o.cfg.mutate, maxMutate)
	case len(parseSets(o.sets)) == 0:
		return errors.New("need at least one set in -sets")
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
	serve(o)
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
	// churn applies one -mutate tick and reports whether churn goes on.
	churn func() bool
	// drained is closed by the admin API's drain request.
	drained chan struct{}
}

// self is the member's address as other members dial it: -advertise,
// or the -listen address.
func (o *options) self() string {
	if o.advertise != "" {
		return o.advertise
	}
	return o.listen
}

// memberTag is a member's identity, which seeds its peer choices, its
// sets' divergent fresh-start extras and its churn: the gossip identity
// under -join, else the -listen address.
func memberTag(o *options) uint64 {
	if o.join != "" {
		return hashAddr(o.self())
	}
	return hashAddr(o.listen)
}

// newDaemon builds one store and one cluster node and binds -listen and
// -admin. The mode decides the peers and the hosted sets: -listen alone
// and -cluster host every -sets name, -join the names the bootstrap
// ring assigns here. A set -data-dir recovered is kept as it is.
func newDaemon(o *options, logf func(string, ...any)) (*daemon, error) {
	cfg := o.cfg
	network, host := splitAddr(o.listen)
	d := &daemon{o: o, logf: logf, store: store.New(), gossip: o.join != "", drained: make(chan struct{})}
	self := o.self()
	if o.dataDir != "" {
		var err error
		if d.dur, err = openDurable(o.dataDir, o.fsync, d.store, logf); err != nil {
			return nil, err
		}
	}
	tag := memberTag(o)
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
	d.churn = d.meshChurn(names, tag)
	var mode string
	if d.gossip {
		// The static -cluster list doubles as extra gossip seeds: a
		// mixed invocation bootstraps from both.
		seeds := append(parseSets(o.join), ccfg.Peers...)
		catalog := clusterCatalog(cfg, names, gossipCapacityNodes)
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
	} else {
		if err := createMissing(d.store, clusterCatalog(cfg, names, len(ccfg.Peers)+1), content, nil); err != nil {
			return nil, fmt.Errorf("cluster store: %w", err)
		}
		mode = fmt.Sprintf("cluster member (%d peers, round every %v)", len(ccfg.Peers), o.interval)
		if len(ccfg.Peers) == 0 {
			// A round with no peers has nothing to do.
			ccfg.Interval = -1
			mode = "one-member node"
		}
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
			c := live.Config{Sync: syncConfig(cfg)}
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

// meshChurn is a member's -mutate tick: one fresh point added to each
// named set it hosts, within a bounded budget. Its draws are seeded
// from the member's identity tag, so no two members add the same
// points. Anti-entropy convergence is add-wins: every add spreads to
// the whole mesh and nothing un-spreads, so unbounded churn would grow
// every member past the (digest-relevant, hence fixed) EMD capacity and
// poison repairs mesh-wide. Each member therefore churns a bounded
// budget the shared capacity formula accounts for.
func (d *daemon) meshChurn(names []string, tag uint64) func() bool {
	cfg := d.o.cfg
	src := rng.New(cfg.seed ^ tag ^ 0xc4a12)
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
func serve(o *options) {
	logger := log.New(os.Stderr, "reconciled: ", log.LstdFlags|log.Lmicroseconds)
	d, err := newDaemon(o, logger.Printf)
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

// hashAddr derives a node-unique seed from its address, so members
// launched with identical workload flags still start with visibly
// divergent named sets.
func hashAddr(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr)) //nolint:errcheck
	return h.Sum64()
}

// randomPoint draws one point of space uniformly.
func randomPoint(space metric.Space, src *rng.Source) metric.Point {
	pt := make(metric.Point, space.Dim)
	for i := range pt {
		pt[i] = int32(src.Uint64() % uint64(space.Delta+1))
	}
	return pt
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
func clusterCatalog(cfg config, names []string, nodes int) []cluster.CatalogSet {
	sync := syncConfig(cfg)
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

// syncConfig is the Sync configuration every set shares: its seed
// derives the point IDs probe and repair compare.
func syncConfig(cfg config) *live.SyncConfig {
	return &live.SyncConfig{Seed: cfg.seed + 4}
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

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reconciled: "+format+"\n", args...)
	os.Exit(2)
}

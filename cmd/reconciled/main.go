// Command reconciled is the reconciliation daemon: it serves the
// paper's protocols (EMD, Gap) to many concurrent peers over TCP or
// unix sockets through the session engine, and doubles as the matching
// client.
//
// Server and client derive their synthetic two-party workload — and,
// critically, their protocol Params — from the same flags, standing in
// for two deployments that share configuration out of band. The session
// header's parameter digest enforces the agreement on every connection.
//
// The server holds its sets as live sets (robustsync epoch-tagged
// mutable state): an EMD set and a Gap set. It serves EMD over the
// live-emd protocol, so returning peers that announce their last synced
// epoch receive only the churned cells, and Gap from the set's cached
// key payloads. With -mutate M the server churns M point replacements
// per second; the sketch and key payloads follow incrementally.
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
// With -cluster the daemon becomes an anti-entropy mesh member: a
// multi-tenant store of named sets (-sets), served under their
// namespaces, converging continuously with the listed peers via
// power-of-two-choices probing and escalating repair (see
// internal/cluster). Every member must run the same workload flags and
// the same -sets list; each member's sets start with divergent extra
// points derived from its own -listen address, so a fresh mesh visibly
// converges.
//
//	reconciled -listen :7441 -cluster :7442,:7443 -sets alpha,beta
//
// With -data-dir the cluster modes become crash-recoverable: every
// named set keeps a write-ahead journal plus epoch snapshots under the
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
// With -admin the daemon serves its operator surface on a dedicated
// localhost HTTP listener: set create/drop/list with live
// reconciliation stats, cluster membership/placement/health views, a
// graceful-drain trigger, a Prometheus /metrics endpoint, and pprof —
// see internal/admin and the README's Operations section. -config
// loads any flag from a file of flat "flag: value" lines; explicit
// flags win over file values.
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
	// quarantine is the health ledger's base quarantine span in
	// anti-entropy rounds (cluster modes); 0 disables eligibility
	// filtering while still tracking per-peer scores and RTTs.
	quarantine int
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

// liveState owns the server's live sets and the mirrors the churner
// replaces points through.
type liveState struct {
	mu        sync.Mutex
	src       *rng.Source
	emdSet    *live.Set
	gapSet    *live.Set
	emdSpace  metric.Space
	gapSpace  metric.Space
	emdMirror metric.PointSet
	gapMirror metric.PointSet
}

func newLiveState(cfg config, f *fixture) (*liveState, error) {
	emdSet, err := live.NewSet(live.Config{EMD: &f.emdParams}, f.emdSA)
	if err != nil {
		return nil, fmt.Errorf("live emd set: %w", err)
	}
	gapSet, err := live.NewSet(live.Config{Gap: &f.gapParams}, f.gapSA)
	if err != nil {
		return nil, fmt.Errorf("live gap set: %w", err)
	}
	return &liveState{
		src:       rng.New(cfg.seed ^ 0xc4a12),
		emdSet:    emdSet,
		gapSet:    gapSet,
		emdSpace:  f.emdParams.Space,
		gapSpace:  f.gapSpace,
		emdMirror: f.emdSA.Clone(),
		gapMirror: f.gapSA.Clone(),
	}, nil
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
		ei := int(st.src.Uint64() % uint64(len(st.emdMirror)))
		ept := randomPoint(st.emdSpace, st.src)
		if err := st.emdSet.ApplyBatch([]live.Op{
			{Remove: true, Point: st.emdMirror[ei]},
			{Point: ept},
		}); err != nil {
			return err
		}
		st.emdMirror[ei] = ept
		gi := int(st.src.Uint64() % uint64(len(st.gapMirror)))
		gpt := randomPoint(st.gapSpace, st.src)
		if err := st.gapSet.ApplyBatch([]live.Op{
			{Remove: true, Point: st.gapMirror[gi]},
			{Point: gpt},
		}); err != nil {
			return err
		}
		st.gapMirror[gi] = gpt
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
	fs.StringVar(&o.proto, "proto", "live-emd", "client protocol: live-emd | gap")
	fs.StringVar(&o.peers, "cluster", "", "comma-separated peer addresses: join an anti-entropy mesh (needs -listen)")
	fs.StringVar(&o.join, "join", "", "comma-separated gossip seed members: self-organising sharded mesh (needs -listen; any -cluster list adds seeds)")
	fs.StringVar(&o.advertise, "advertise", "", "address other members dial — the gossip identity (default: the -listen address)")
	fs.IntVar(&o.replication, "replication", 3, "owners per shard on the placement ring (gossip mode)")
	fs.StringVar(&o.sets, "sets", "alpha,beta", "named sets hosted in cluster mode (comma-separated)")
	fs.DurationVar(&o.interval, "interval", time.Second, "anti-entropy round period (cluster mode)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain deadline")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (cluster modes): WAL + snapshots, recovery on startup")
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
	fs.IntVar(&c.mutate, "mutate", 0, "live-set churn in mutations/sec (server and cluster modes; a client passes nonzero against a churning server)")

	fs.IntVar(&c.maxSessions, "max-sessions", 64, "concurrent session cap (server)")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Minute, "per-session deadline")
	fs.IntVar(&c.quarantine, "quarantine", 16, "peer quarantine span in rounds (cluster modes); 0 observes health without skipping peers")
	fs.StringVar(&o.admin, "admin", "", "serve the admin API and /metrics on this address (e.g. localhost:7470)")
	fs.StringVar(&o.configPath, "config", "", "config file of flat \"flag: value\" lines; explicit flags win")
	return o
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

	cfg := o.cfg
	if cfg.r2 == 0 {
		cfg.r2 = float64(cfg.d)
	}
	f, err := newFixture(cfg)
	if err != nil {
		fail("%v", err)
	}

	switch {
	case o.listen != "" && (o.peers != "" || o.join != ""):
		runCluster(cfg, f, o.listen, o.peers, o.join, o.advertise, o.sets, o.interval, o.drain, o.dataDir, o.fsync, o.replication, o.admin)
	case o.listen != "":
		runServer(cfg, f, o.listen, o.drain, o.admin)
	case o.connect != "":
		network, host := splitAddr(o.connect)
		if err := runClient(cfg, f, network, host, o.proto); err != nil {
			fail("%v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "reconciled: need -listen or -connect (see -help)")
		os.Exit(2)
	}
}

// stopAdmin shuts the admin server, if one runs, down within the drain
// deadline, so a clean exit leaves no listener behind.
func stopAdmin(adm *admin.Server, drain time.Duration, logf func(string, ...any)) {
	if adm == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := adm.Shutdown(ctx); err != nil {
		logf("admin shutdown: %v", err)
	}
}

// newServer builds the daemon's session server over its live sets: it
// plays Alice (it owns the canonical sets and ships sketches). EMD is
// served as live-emd (epoch tagging plus delta sync) and Gap from cached
// key payloads; the returned liveState drives churn.
func newServer(cfg config, f *fixture, logf func(string, ...any)) (*session.Server, *liveState) {
	srv := session.NewServer(session.Config{
		MaxSessions:    cfg.maxSessions,
		SessionTimeout: cfg.timeout,
		Logf:           logf,
	})
	st, err := newLiveState(cfg, f)
	if err != nil {
		fail("%v", err)
	}
	emdFactory, err := netproto.NewLiveEMDSenderFactory(st.emdSet)
	if err != nil {
		fail("live emd: %v", err)
	}
	gapFactory, err := netproto.NewLiveGapSenderFactory(st.gapSet)
	if err != nil {
		fail("live gap: %v", err)
	}
	srv.Handle(emdFactory)
	srv.Handle(gapFactory)
	return srv, st
}

func splitAddr(addr string) (network, host string) {
	if strings.HasPrefix(addr, "unix:") {
		return "unix", strings.TrimPrefix(addr, "unix:")
	}
	return "tcp", addr
}

// signalChan subscribes to SIGINT/SIGTERM.
func signalChan() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}

// shutdown drains the server gracefully and prints the final tallies —
// the daemon's answer to SIGINT/SIGTERM in every serving mode, instead
// of dying mid-frame.
func shutdown(srv *session.Server, drain time.Duration, logger *log.Logger) {
	logger.Printf("shutting down: draining in-flight sessions (up to %v)", drain)
	if err := srv.Shutdown(drain); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	total, _ := srv.Stats()
	logger.Printf("final: %d sessions ok, %d failed; %s (%.2f MB); max payload %d bits",
		srv.Served(), srv.Failed(), total, float64(total.TotalBytes())/1e6, total.MaxPayload())
}

func runServer(cfg config, f *fixture, addr string, drain time.Duration, adminAddr string) {
	logger := log.New(os.Stderr, "reconciled: ", log.LstdFlags|log.Lmicroseconds)
	srv, st := newServer(cfg, f, logger.Printf)
	network, host := splitAddr(addr)
	l, err := net.Listen(network, host)
	if err != nil {
		fail("listen: %v", err)
	}
	drainCh := make(chan struct{})
	var adm *admin.Server
	if adminAddr != "" {
		// Single-set server mode hosts no multi-tenant store, so the set
		// endpoints answer 503; session stats and /metrics still work.
		adm = admin.New(admin.Config{
			Session: srv,
			Drain:   func() { close(drainCh) },
			Logf:    logger.Printf,
		})
		aaddr, err := adm.Start(adminAddr)
		if err != nil {
			fail("%v", err)
		}
		logger.Printf("admin API on http://%s/ (Prometheus on /metrics)", aaddr)
	}
	logger.Printf("serving live-emd, gap on %s %s (max %d sessions, %d mutations/s)",
		network, l.Addr(), cfg.maxSessions, cfg.mutate)
	if cfg.mutate > 0 {
		go func() {
			tick := time.NewTicker(time.Second / time.Duration(cfg.mutate))
			defer tick.Stop()
			for range tick.C {
				if err := st.churn(1); err != nil {
					logger.Printf("churn: %v", err)
					return
				}
			}
		}()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		if err != session.ErrServerClosed {
			fail("serve: %v", err)
		}
	case sig := <-signalChan():
		logger.Printf("received %v", sig)
		shutdown(srv, drain, logger)
	case <-drainCh:
		logger.Printf("drain requested via admin API")
		shutdown(srv, drain, logger)
	}
	stopAdmin(adm, drain, logger.Printf)
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
// The static mesh (populateClusterStore) and the gossip placement
// path (-join) both build set configs here, so a set hosted by any
// member carries an identical parameter digest — two owners with
// different configs would never fingerprint-match. nodes is the
// member budget the capacity formula absorbs: capacity must hold the
// union of the shared base, every member's extras, and every member's
// bounded churn budget (see churnBudget), and it is digest-relevant
// via emd.Params.N — so it must derive from flags and an agreed
// budget, never from a member's local view of the topology.
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

// populateClusterStore creates the member's sets in st, skipping any
// that are already present — a durable member recovers its sets from
// disk first, and only the ones its previous life never created get
// the fresh-start content.
func populateClusterStore(cfg config, f *fixture, names []string, nodes int, nodeTag uint64, st *store.Store) error {
	for i, cs := range clusterCatalog(cfg, f, names, nodes) {
		if _, ok := st.Get(cs.Name); ok {
			continue
		}
		if _, err := st.Create(cs.Name, cs.Config, setContent(cfg, i, nodeTag)); err != nil {
			return err
		}
	}
	return nil
}

// gossipCapacityNodes is the agreed member budget gossip-mode
// capacity assumes. Members may pass different -join seed lists and
// the membership grows at runtime, so — unlike the static mesh, where
// len(peers)+1 is flag-derived — the capacity formula cannot depend
// on any local view of the topology. A fixed budget keeps every
// member's catalog identical; it bounds how many distinct members can
// plant fresh-start extras into one set over its lifetime.
const gossipCapacityNodes = 64

// populateGossipStore seeds a gossip-mode member's store with
// fresh-start content for the named sets the bootstrap ring — self plus
// the seed members — assigns to this member (skipping any durable
// recovery restored). The authoritative
// hosted roster follows the gossiped membership once rounds run:
// ApplyPlacement creates missing owned sets empty and the repair path
// fills them, and anything planted here that ownership moves away
// from reaches its owners through handoff before the local copy
// drops.
func populateGossipStore(cfg config, f *fixture, names []string, self string, seeds []string, replication int, st *store.Store) error {
	members := []string{self}
	seen := map[string]bool{self: true}
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			members = append(members, s)
		}
	}
	ring := placement.New(members, 0, cfg.seed)
	assign := ring.Assign(names, replication, 0)
	for i, cs := range clusterCatalog(cfg, f, names, gossipCapacityNodes) {
		owned := false
		for _, o := range assign[cs.Name] {
			if o == self {
				owned = true
				break
			}
		}
		if !owned {
			continue
		}
		if _, ok := st.Get(cs.Name); ok {
			continue
		}
		if _, err := st.Create(cs.Name, cs.Config, setContent(cfg, i, hashAddr(self))); err != nil {
			return err
		}
	}
	return nil
}

// openDurable opens the durability layer under dir, recovers whatever
// a previous life persisted into st, and attaches the persister so
// every set created from here on is journaled too.
func openDurable(dir, policy string, st *store.Store, logf func(string, ...any)) *durable.Store {
	if err := checkDataDir(dir); err != nil {
		fail("%v", err)
	}
	pol, err := durable.ParseFsyncPolicy(policy)
	if err != nil {
		fail("%v", err)
	}
	d, err := durable.Open(dir, durable.Options{Fsync: pol, Logf: logf})
	if err != nil {
		fail("durable: %v", err)
	}
	stats, err := d.Recover(st)
	if err != nil {
		fail("recovery: %v", err)
	}
	st.SetPersister(d)
	logf("durable state in %s (fsync %s): recovered %s", dir, pol, stats)
	return d
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

func runCluster(cfg config, f *fixture, addr, peersCSV, joinCSV, advertise, setsCSV string, interval, drain time.Duration, dataDir, fsyncPolicy string, replication int, adminAddr string) {
	logger := log.New(os.Stderr, "reconciled: ", log.LstdFlags|log.Lmicroseconds)
	peers := parseSets(peersCSV)
	names := parseSets(setsCSV)
	if len(names) == 0 {
		fail("cluster modes need at least one set in -sets")
	}
	network, host := splitAddr(addr)
	st := store.New()
	var dur *durable.Store
	if dataDir != "" {
		dur = openDurable(dataDir, fsyncPolicy, st, logger.Printf)
	}
	ccfg := cluster.Config{
		Store:    st,
		Peers:    peers,
		Network:  network,
		Interval: interval,
		Seed:     cfg.seed ^ hashAddr(addr),
		Logf:     logger.Printf,
		Session: session.Config{
			MaxSessions:    cfg.maxSessions,
			SessionTimeout: cfg.timeout,
			Logf:           logger.Printf,
		},
		SessionTimeout:    cfg.timeout,
		QuarantineRounds:  cfg.quarantine,
		DisableQuarantine: cfg.quarantine == 0,
	}
	gossiping := joinCSV != ""
	if gossiping {
		self := advertise
		if self == "" {
			self = addr
		}
		// The static -cluster list doubles as extra gossip seeds: a
		// mixed invocation bootstraps from both.
		seeds := append(parseSets(joinCSV), peers...)
		if err := populateGossipStore(cfg, f, names, self, seeds, replication, st); err != nil {
			fail("cluster store: %v", err)
		}
		g, err := gossip.New(gossip.Config{
			Self:  self,
			Seeds: seeds,
			Seed:  cfg.seed ^ hashAddr(self),
			Logf:  logger.Printf,
		})
		if err != nil {
			fail("gossip: %v", err)
		}
		// Peer list and hosted roster are gossip-fed from here on; the
		// ring's hash family (PlacementSeed) is the shared -seed flag, so
		// every member computes identical owner sets.
		ccfg.Peers = nil
		ccfg.Seed = cfg.seed ^ hashAddr(self)
		ccfg.Membership = g
		ccfg.Catalog = clusterCatalog(cfg, f, names, gossipCapacityNodes)
		ccfg.Replication = replication
		ccfg.PlacementSeed = cfg.seed
	} else if err := populateClusterStore(cfg, f, names, len(peers)+1, hashAddr(addr), st); err != nil {
		fail("cluster store: %v", err)
	}
	node, err := cluster.New(ccfg)
	if err != nil {
		fail("cluster: %v", err)
	}
	l, err := node.Start(host)
	if err != nil {
		fail("cluster listen: %v", err)
	}
	if gossiping {
		logger.Printf("gossip member on %s %s: %d seeds, %d-shard catalog at R=%d, round every %v; %s",
			network, l.Addr(), len(parseSets(joinCSV))+len(peers), len(names), replication, interval, st.Stats())
	} else {
		logger.Printf("cluster member on %s %s: %d peers, sets %v, round every %v; %s",
			network, l.Addr(), len(peers), names, interval, st.Stats())
	}
	drainCh := make(chan struct{})
	var adm *admin.Server
	if adminAddr != "" {
		self := advertise
		if self == "" {
			self = addr
		}
		adm = admin.New(admin.Config{
			Store:   st,
			Node:    node,
			Durable: dur,
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
			Drain: func() { close(drainCh) },
			Logf:  logger.Printf,
		})
		aaddr, err := adm.Start(adminAddr)
		if err != nil {
			fail("%v", err)
		}
		logger.Printf("admin API on http://%s/ (Prometheus on /metrics)", aaddr)
	}
	if cfg.mutate > 0 {
		go func() {
			tick := time.NewTicker(time.Second / time.Duration(cfg.mutate))
			defer tick.Stop()
			src := rng.New(cfg.seed ^ hashAddr(addr) ^ 0xc4a12)
			space := metric.HammingCube(cfg.d)
			// Anti-entropy convergence is add-wins: every add spreads to
			// the whole mesh and nothing un-spreads, so unbounded churn
			// would grow every member past the (digest-relevant, hence
			// fixed) EMD capacity and poison repairs mesh-wide. Each
			// member therefore churns a bounded budget the shared
			// capacity formula accounts for.
			budget := churnBudget(cfg)
			for range tick.C {
				if budget <= 0 {
					logger.Printf("churn budget exhausted (%d adds per set); store %s", churnBudget(cfg), st.Stats())
					return
				}
				budget--
				for _, name := range names {
					ls, ok := st.Get(name)
					if !ok {
						continue
					}
					fresh := randomPoint(space, src)
					if err := ls.Add(fresh); err != nil {
						logger.Printf("churn %q: %v", name, err)
					}
				}
			}
		}()
	}
	select {
	case sig := <-signalChan():
		logger.Printf("received %v", sig)
	case <-drainCh:
		logger.Printf("drain requested via admin API")
	}
	if gossiping {
		// Graceful departure: final push to co-owners, Left announcement
		// to every active member, then close — shards move immediately
		// instead of after a suspicion timeout.
		logger.Printf("leaving mesh (drain %v)", drain)
		if err := node.Leave(drain); err != nil {
			logger.Printf("leave: %v", err)
		}
	} else {
		logger.Printf("closing cluster node (drain %v)", drain)
		if err := node.Close(drain); err != nil {
			logger.Printf("close: %v", err)
		}
	}
	if dur != nil {
		// Snapshot-on-drain: seal every journal at its final epoch so the
		// next boot replays nothing.
		if err := dur.Close(); err != nil {
			logger.Printf("durable close: %v", err)
		} else {
			logger.Printf("durable state drained: final snapshots written to %s", dataDir)
		}
	}
	if gossiping {
		p := node.Placement()
		logger.Printf("placement: %d acquired, %d dropped after handoff, %d still relinquishing",
			p.Acquired, p.Dropped, p.Relinquishing)
	}
	for name, m := range node.Metrics() {
		if name == "" {
			name = "<default>"
		}
		logger.Printf("set %s: %v", name, m)
	}
	total, _ := node.Server().Stats()
	logger.Printf("net: %s", node.NetStats())
	logger.Printf("health: %s", node.HealthSummary())
	logger.Printf("final: %d sessions ok, %d failed; %s; max payload %d bits; store %s",
		node.Server().Served(), node.Server().Failed(), total, total.MaxPayload(), st.Stats())
	stopAdmin(adm, drain, logger.Printf)
}

// runClient runs one session of the named protocol and reports the
// outcome. It returns an error both on transport failure and on a
// result that violates the protocol's guarantee, so the exit status is
// an end-to-end check. live-emd runs two sessions on one sketch cache,
// so the second takes the delta path (an empty delta if the server did
// not churn in between).
func runClient(cfg config, f *fixture, network, addr, proto string) error {
	dial := session.Dialer{Network: network, Addr: addr}
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

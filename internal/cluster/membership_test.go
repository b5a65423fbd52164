package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gap"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/store"
)

// gossipCatalog builds a uniform Sync-only catalog of nSets shards.
func gossipCatalog(nSets int) []CatalogSet {
	out := make([]CatalogSet, nSets)
	for i := range out {
		out[i] = CatalogSet{
			Name:   fmt.Sprintf("shard-%02d", i),
			Config: live.Config{Sync: &live.SyncConfig{Seed: testSyncSeed}},
		}
	}
	return out
}

// startGossipMesh builds count empty-store nodes in gossip-fed
// placement mode over a simnet, every node seeded with the full address
// list, and applies the initial placement so each node hosts exactly
// its owned shards.
func startGossipMesh(t *testing.T, count, nSets, rf int) ([]*Node, []string, *simnet.Network) {
	t.Helper()
	net := simnet.New(uint64(31 + count))
	cat := gossipCatalog(nSets)
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d:1", i)
	}
	nodes := make([]*Node, count)
	for i := range nodes {
		host := fmt.Sprintf("node%d", i)
		g, err := gossip.New(gossip.Config{
			Self:          addrs[i],
			Seeds:         addrs,
			SuspectRounds: 2,
			Seed:          uint64(500 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Store:         store.New(),
			Network:       "sim",
			Interval:      -1,
			Seed:          uint64(1000 + i),
			Logf:          t.Logf,
			Transport:     net.Host(host),
			Membership:    g,
			Catalog:       cat,
			Replication:   rf,
			PlacementSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := n.Start(host + ":1")
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Addr().String(); got != addrs[i] {
			t.Fatalf("node %d bound %q, want %q", i, got, addrs[i])
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.ApplyPlacement()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close(time.Second) //nolint:errcheck
		}
	})
	return nodes, addrs, net
}

// TestCatalogNeedsSync: New refuses a catalog entry without Sync state,
// which the reconciler could never converge, and one listed twice.
func TestCatalogNeedsSync(t *testing.T) {
	g, err := gossip.New(gossip.Config{Self: "node0:1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gapP := gap.Params{Space: metric.HammingCube(testDim), N: 8, R1: 2, R2: 16, Seed: 8}
	for _, c := range []struct {
		name    string
		catalog []CatalogSet
		want    string
	}{
		{"gap only", append(gossipCatalog(1), CatalogSet{Name: "gap", Config: live.Config{Gap: &gapP}}), "no Sync state"},
		{"duplicate", append(gossipCatalog(1), gossipCatalog(1)...), "listed twice"},
	} {
		_, err := New(Config{Store: store.New(), Interval: -1, Membership: g, Catalog: c.catalog})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestGossipNodeResolver dials a gossip node from outside the mesh: its
// one resolver answers the member-table exchange on the default set and
// the store's protocols on each hosted set, and the default set, which
// this store does not hold, serves gossip and nothing else.
func TestGossipNodeResolver(t *testing.T) {
	nodes, addrs, net := startGossipMesh(t, 2, 2, 2)
	if _, ok := nodes[0].Store().Get("shard-00"); !ok {
		t.Fatal("node 0 does not host shard-00 at R=2 over two nodes")
	}
	g, err := gossip.New(gossip.Config{Self: "client:1", Seeds: addrs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d := session.Dialer{Network: "sim", Addr: addrs[0], Transport: net.Host("client")}
	if _, err := d.Do(g.Initiator()); err != nil {
		t.Fatalf("gossip on the default set: %v", err)
	}
	if got := len(g.Active()); got != 3 {
		t.Fatalf("client sees %d active members after one exchange, want 3", got)
	}
	local, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: testSyncSeed}}, testPoints(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := netproto.NewProbeInitiator(local)
	if err != nil {
		t.Fatal(err)
	}
	d.Set = "shard-00"
	if _, err := d.Do(probe); err != nil {
		t.Fatalf("probe on a hosted set: %v", err)
	}
	d.Set = ""
	if _, err := d.Do(probe); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("probe on the gossip-only default set: %v, want unknown protocol", err)
	}
}

// driveGossipRounds runs full rounds (gossip, then reconcile, with
// quiesce barriers) over the live nodes until done() or maxRounds.
func driveGossipRounds(t *testing.T, nodes []*Node, maxRounds int, done func() bool) int {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		for _, n := range nodes {
			n.GossipOnce()
		}
		settle(nodes)
		for _, n := range nodes {
			n.ReconcileOnce() //nolint:errcheck
		}
		settle(nodes)
		if done() {
			return r
		}
	}
	t.Fatalf("not done after %d rounds", maxRounds)
	return maxRounds
}

// placementSettled reports whether every catalog shard is hosted by
// exactly wantHosts of the live nodes, fingerprint-identical across
// them, with no handoffs pending anywhere.
func placementSettled(nodes []*Node, nSets, wantHosts int) bool {
	for _, n := range nodes {
		if n.Placement().Relinquishing > 0 {
			return false
		}
	}
	for i := 0; i < nSets; i++ {
		name := fmt.Sprintf("shard-%02d", i)
		hosts := 0
		var fp uint64
		fpSet := false
		for _, n := range nodes {
			ls, ok := n.store.Get(name)
			if !ok {
				continue
			}
			hosts++
			f := ls.IDFingerprint()
			if !fpSet {
				fp, fpSet = f, true
			} else if f != fp {
				return false
			}
		}
		if hosts != wantHosts {
			return false
		}
	}
	return true
}

// TestGossipPlacementLifecycle is the subsystem's acceptance test in
// miniature: 6 nodes, 8 shards, R=2. Placement creates each shard on
// exactly its owners; owner-planted points converge within the replica
// group; a graceful leave and then an unannounced crash each move
// ownership and re-replicate without losing a point; per-node load
// stays within the bounded-loads budget throughout.
func TestGossipPlacementLifecycle(t *testing.T) {
	const (
		nNodes = 6
		nSets  = 8
		rf     = 2
	)
	nodes, addrs, _ := startGossipMesh(t, nNodes, nSets, rf)

	// Initial placement: every shard on exactly rf nodes, none pending.
	hostCount := map[string]int{}
	perNode := make([]int, nNodes)
	for i, n := range nodes {
		for _, name := range n.store.Names() {
			hostCount[name]++
			perNode[i]++
		}
	}
	if len(hostCount) != nSets {
		t.Fatalf("placement created %d distinct shards, want %d", len(hostCount), nSets)
	}
	budget := placement.New(addrs, 0, 7).Capacity(nSets, rf, 0)
	for name, c := range hostCount {
		if c != rf {
			t.Fatalf("shard %q on %d nodes, want %d", name, c, rf)
		}
	}
	for i, c := range perNode {
		if c > budget {
			t.Fatalf("node %d hosts %d shards, budget %d", i, c, budget)
		}
	}

	// Plant divergent owner-local points: 5 per hosting node per shard.
	// The converged size per shard is therefore 5·rf distinct points,
	// and it must stay 5·rf through every ownership move below.
	for i, n := range nodes {
		for _, name := range n.store.Names() {
			ls, _ := n.store.Get(name)
			for _, pt := range testPoints(5, uint64(7000+i*100)+uint64(name[len(name)-1])) {
				if err := ls.Add(pt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	wantSize := 5 * rf

	checkSizes := func(live []*Node) {
		t.Helper()
		for i := 0; i < nSets; i++ {
			name := fmt.Sprintf("shard-%02d", i)
			for _, n := range live {
				if ls, ok := n.store.Get(name); ok {
					if got := ls.Size(); got != wantSize {
						t.Fatalf("shard %q has %d points on some host, want %d", name, got, wantSize)
					}
				}
			}
		}
	}

	r := driveGossipRounds(t, nodes, 30, func() bool {
		return placementSettled(nodes, nSets, rf)
	})
	t.Logf("initial convergence after %d rounds", r)
	checkSizes(nodes)

	// Graceful leave: node 5 announces, pushes state, and departs.
	// Ownership of its shards moves; the new owners pull the content.
	if err := nodes[5].Leave(time.Second); err != nil {
		t.Fatalf("leave: %v", err)
	}
	alive := nodes[:5]
	r = driveGossipRounds(t, alive, 40, func() bool {
		return placementSettled(alive, nSets, rf)
	})
	t.Logf("re-settled after leave in %d rounds", r)
	checkSizes(alive)

	// Unannounced crash: node 4 vanishes. Suspicion ages it to dead,
	// placement reassigns, and the surviving replica re-replicates.
	// (A zero drain force-closes whatever is in flight — that is the
	// crash; the shutdown error is the point, not a failure.)
	nodes[4].Close(0) //nolint:errcheck
	alive = nodes[:4]
	r = driveGossipRounds(t, alive, 60, func() bool {
		return placementSettled(alive, nSets, rf)
	})
	t.Logf("re-settled after crash in %d rounds", r)
	checkSizes(alive)

	// Load bound still holds on the shrunk mesh.
	survivors := addrs[:4]
	budget = placement.New(survivors, 0, 7).Capacity(nSets, rf, 0)
	for i, n := range alive {
		if c := len(n.store.Names()); c > budget {
			t.Fatalf("node %d hosts %d shards after churn, budget %d", i, c, budget)
		}
	}
}

// TestSetPeersRacesReconciler hammers the membership seam gossip drives
// constantly: SetPeers flipping between full, shrunk, grown (with an
// unreachable ghost), and empty lists while reconciliation rounds run
// concurrently — plus a health reader snapshotting the peer ledger the
// same rounds are writing (probe outcomes, quarantine transitions). It
// must not panic or deadlock, and once the list settles to the live
// members, later rounds must stop touching the departed address
// entirely.
func TestSetPeersRacesReconciler(t *testing.T) {
	nodes, _ := startMesh(t, 3)
	n := nodes[0]
	full := n.Peers()
	ghost := append(append([]string(nil), full...), "ghost:1")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(77)
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch src.Intn(4) {
			case 0:
				n.SetPeers(nil)
			case 1:
				n.SetPeers(full[:1])
			case 2:
				n.SetPeers(ghost)
			default:
				n.SetPeers(full)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range n.PeerHealths() {
				if h.Failures+h.Successes+h.Corruptions == 0 && h.State != PeerHealthy {
					t.Errorf("peer with no outcomes in state %v", h.State)
					return
				}
			}
			_ = n.HealthSummary()
		}
	}()
	var raceErr error
	for i := 0; i < 40; i++ {
		if _, err := n.ReconcileOnce(); err != nil && raceErr == nil {
			raceErr = err // ghost probes fail by design; just note one
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("first mid-race error (expected, ghost peer): %v", raceErr)

	// Membership settles: the ghost is gone. Drain pending backoff,
	// then verify rounds are clean — no probe failures means no session
	// ever touched the departed peer again.
	n.SetPeers(full)
	settle(nodes)
	for i := 0; i < 10; i++ {
		n.ReconcileOnce() //nolint:errcheck
	}
	settle(nodes)
	failuresAt := func() uint64 {
		var sum uint64
		for _, m := range n.Metrics() {
			sum += m.ProbeFailures + m.RepairFailures
		}
		return sum
	}
	before := failuresAt()
	for i := 0; i < 10; i++ {
		if _, err := n.ReconcileOnce(); err != nil {
			t.Fatalf("round after settling: %v", err)
		}
	}
	if after := failuresAt(); after != before {
		t.Fatalf("departed peer still probed: failures %d -> %d", before, after)
	}
}

package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/store"
)

const (
	testSyncSeed = 42
	testDim      = 64
	testCapacity = 256
)

func testPoints(n int, seed uint64) metric.PointSet {
	space := metric.HammingCube(testDim)
	src := rng.New(seed)
	out := make(metric.PointSet, n)
	for i := range out {
		pt := make(metric.Point, space.Dim)
		for j := range pt {
			pt[j] = int32(src.Uint64() % uint64(space.Delta+1))
		}
		out[i] = pt
	}
	return out
}

// testStore hosts three sets with identical cross-node configs but
// node-specific extra points: "alpha" maintains EMD+Sync (a set the
// mesh converges by repair while it serves live-emd to clients), "beta"
// and the default set Sync only.
func testStore(t *testing.T, node int) *store.Store {
	t.Helper()
	st := store.New()
	space := metric.HammingCube(testDim)
	for i, name := range []string{"", "alpha", "beta"} {
		base := testPoints(20, uint64(i+1))
		extras := testPoints(5, uint64(100+10*node+i))
		cfg := live.Config{Sync: &live.SyncConfig{Seed: testSyncSeed}}
		if name == "alpha" {
			p := emd.DefaultParams(space, testCapacity, 4, 7)
			cfg.EMD = &p
		}
		if _, err := st.Create(name, cfg, append(base.Clone(), extras...)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// servedCounter tallies the sessions a mesh's servers created, per
// protocol, across every node whose resolver it wraps.
type servedCounter struct {
	mu sync.Mutex
	n  map[netproto.Proto]int
}

func newServedCounter() *servedCounter {
	return &servedCounter{n: make(map[netproto.Proto]int)}
}

// wrap is a Config.WrapResolver that counts each served session.
func (c *servedCounter) wrap(res netproto.Resolver) netproto.Resolver {
	return func(set string, proto netproto.Proto, peerRole netproto.Role) (func() netproto.Handler, bool) {
		f, exists := res(set, proto, peerRole)
		if f == nil {
			return nil, exists
		}
		return func() netproto.Handler {
			c.mu.Lock()
			c.n[proto]++
			c.mu.Unlock()
			return f()
		}, exists
	}
}

func (c *servedCounter) get(proto netproto.Proto) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[proto]
}

// startMesh builds and starts n manual-round nodes over a deterministic
// simnet (hermetic: no real ports or timers) and installs the full peer
// mesh. The returned network is the fault-injection handle.
func startMesh(t *testing.T, count int) ([]*Node, *simnet.Network) {
	t.Helper()
	return startCountedMesh(t, count, nil)
}

// startCountedMesh is startMesh with every node's served sessions
// tallied in served (nil counts nothing).
func startCountedMesh(t *testing.T, count int, served *servedCounter) ([]*Node, *simnet.Network) {
	t.Helper()
	stores := make([]*store.Store, count)
	for i := range stores {
		stores[i] = testStore(t, i)
	}
	return startMeshOver(t, stores, served)
}

// startMeshOver is startCountedMesh with one node over each given store.
func startMeshOver(t *testing.T, stores []*store.Store, served *servedCounter) ([]*Node, *simnet.Network) {
	t.Helper()
	count := len(stores)
	net := simnet.New(uint64(7 + count))
	nodes := make([]*Node, count)
	addrs := make([]string, count)
	for i := range nodes {
		host := fmt.Sprintf("node%d", i)
		cfg := Config{
			Store:     stores[i],
			Network:   "sim",
			Interval:  -1, // manual rounds
			Seed:      uint64(1000 + i),
			Logf:      t.Logf,
			Transport: net.Host(host),
		}
		if served != nil {
			cfg.WrapResolver = served.wrap
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := n.Start(host + ":1")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = l.Addr().String()
	}
	for i, n := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		n.SetPeers(peers)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close(time.Second) //nolint:errcheck
		}
	})
	return nodes, net
}

// settle quiesces every node, so server-side merges from the last round
// are fully applied before state is read or the next round starts —
// the same barrier the scenario harness uses for determinism.
func settle(nodes []*Node) {
	for _, n := range nodes {
		n.Quiesce()
	}
}

// meshConverged reports whether every set is fingerprint-identical
// across all nodes.
func meshConverged(t *testing.T, nodes []*Node) bool {
	t.Helper()
	for _, name := range []string{"", "alpha", "beta"} {
		var fp uint64
		for i, n := range nodes {
			ls, ok := n.store.Get(name)
			if !ok {
				t.Fatalf("node %d lost set %q", i, name)
			}
			f := ls.IDFingerprint()
			if i == 0 {
				fp = f
			} else if f != fp {
				return false
			}
		}
	}
	return true
}

// churn applies one batch per set on the node: two fresh points in, one
// of them straight back out — exercising batched add+remove under
// concurrent anti-entropy without ever removing a point a peer may
// already have replicated (anti-entropy is add-wins; such a removal
// would legitimately resurrect).
func churn(t *testing.T, n *Node, seed uint64) {
	t.Helper()
	for i, name := range []string{"", "alpha", "beta"} {
		ls, _ := n.store.Get(name)
		fresh := testPoints(2, seed+uint64(i)*1000)
		err := ls.ApplyBatch([]live.Op{
			{Point: fresh[0]},
			{Point: fresh[1]},
			{Remove: true, Point: fresh[0]},
		})
		if err != nil {
			t.Fatalf("churn on set %q: %v", name, err)
		}
	}
}

// settleUntilConverged runs manual rounds on every node until every
// set is fingerprint-identical across the mesh, failing the test after
// maxRounds. It returns the number of rounds taken.
func settleUntilConverged(t *testing.T, nodes []*Node, maxRounds int) int {
	t.Helper()
	for round := 0; round < maxRounds; round++ {
		for i, n := range nodes {
			if _, err := n.ReconcileOnce(); err != nil {
				t.Fatalf("settle round %d node %d: %v", round, i, err)
			}
		}
		settle(nodes)
		if meshConverged(t, nodes) {
			return round + 1
		}
	}
	for i, n := range nodes {
		for name, m := range n.Metrics() {
			t.Logf("node %d set %q: %v", i, name, m)
		}
	}
	t.Fatalf("mesh not converged after %d settle rounds", maxRounds)
	return 0
}

// TestClusterConvergenceUnderChurn is the acceptance test: 3 nodes with
// divergent stores, concurrent ApplyBatch churn during the first
// rounds, then convergence to fingerprint-identical state for every
// named set within a bounded number of anti-entropy rounds — by probe
// and repair alone: the mesh serves no live-emd session to itself.
func TestClusterConvergenceUnderChurn(t *testing.T) {
	served := newServedCounter()
	nodes, _ := startCountedMesh(t, 3, served)

	// Phase 1: anti-entropy racing churn.
	for round := 0; round < 3; round++ {
		for i, n := range nodes {
			churn(t, n, uint64(500+round*100+i*10))
			if _, err := n.ReconcileOnce(); err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
		}
	}
	settle(nodes)

	// Phase 2: churn stops; the mesh must converge within a bounded
	// number of rounds. 2 choices of 2 peers probe everyone, so each
	// round strictly propagates the union; 10 rounds is generous.
	t.Logf("converged after %d settle rounds", settleUntilConverged(t, nodes, 10))

	// One more round: every node must now see all-matched probes.
	for i, n := range nodes {
		if _, err := n.ReconcileOnce(); err != nil {
			t.Fatalf("final round node %d: %v", i, err)
		}
		settle(nodes)
		if !n.Converged(1) {
			t.Fatalf("node %d does not report convergence: %v", i, n.Metrics())
		}
	}
	if got := served.get(netproto.ProtoRepair); got == 0 {
		t.Fatal("mesh converged without serving a single repair session")
	}
	if got := served.get(netproto.ProtoLiveEMD); got != 0 {
		t.Fatalf("mesh served %d live-emd sessions to itself, want 0", got)
	}
	// The EMD set converged as a whole: equal distinct points give an
	// equal ID fingerprint and, through the same sketch seed, an equal
	// EMD fingerprint on every node once a live-emd serve builds it.
	var want *live.Snapshot
	for i, n := range nodes {
		ls, _ := n.store.Get("alpha")
		snap, _, err := ls.ServeEMD(0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = snap
			continue
		}
		fp, wantFP := snap.EMDFingerprint, want.EMDFingerprint
		if snap.IDFingerprint != want.IDFingerprint || fp != wantFP {
			t.Fatalf("node %d alpha fingerprints id=%#x emd=%#x, node 0 has id=%#x emd=%#x",
				i, snap.IDFingerprint, fp, want.IDFingerprint, wantFP)
		}
	}
}

// TestClusterServesLiveEMD: a mesh node no longer pulls EMD sketches,
// but it still serves live-emd to clients — a full transfer first,
// then a delta once the client's cache holds the previous epoch.
func TestClusterServesLiveEMD(t *testing.T) {
	served := newServedCounter()
	nodes, net := startCountedMesh(t, 3, served)
	settleUntilConverged(t, nodes, 10)

	ls, _ := nodes[0].store.Get("alpha")
	p, ok := ls.EMDParams()
	if !ok {
		t.Fatal("alpha maintains no EMD sketch")
	}
	d := session.Dialer{
		Network:   "sim",
		Addr:      "node0:1",
		Set:       "alpha",
		Transport: net.Host("client"),
	}
	// One client sketch cache (a receiver's fresh one) across both
	// sessions.
	cache := netproto.NewLiveEMDReceiver(p, nil, nil).Cache
	pull := func(wantDelta bool) {
		t.Helper()
		snap := ls.Snapshot()
		recv := netproto.NewLiveEMDReceiver(p, snap.Points, cache)
		// Run verifies the served sketch against the server's EMD
		// fingerprint and fails on a mismatch.
		if _, err := d.Do(recv); err != nil {
			t.Fatalf("live-emd session: %v", err)
		}
		if recv.UsedDelta != wantDelta {
			t.Fatalf("UsedDelta = %v, want %v", recv.UsedDelta, wantDelta)
		}
		if recv.Epoch != snap.Epoch {
			t.Fatalf("served epoch %d, want %d", recv.Epoch, snap.Epoch)
		}
		if recv.Result.Failed || len(recv.Result.SPrime) != len(snap.Points) {
			t.Fatalf("result: failed=%v |S'B|=%d, want %d points", recv.Result.Failed, len(recv.Result.SPrime), len(snap.Points))
		}
	}
	pull(false)
	if err := ls.Add(testPoints(1, 4242)[0]); err != nil {
		t.Fatal(err)
	}
	pull(true)
	nodes[0].Quiesce()
	if got := served.get(netproto.ProtoLiveEMD); got != 2 {
		t.Fatalf("served %d live-emd sessions, want the client's 2", got)
	}
}

// TestNodeSkipsSetsWithoutSync: probe and repair compare point IDs, so
// a node reconciles only its Sync sets. Two nodes each hold a diverged
// Sync set, EMD-only set and Gap-only set; after three rounds no probe
// or repair has failed, only the Sync set has metrics, the nodes report
// convergence, and the EMD-only set still serves live-emd.
func TestNodeSkipsSetsWithoutSync(t *testing.T) {
	space := metric.HammingCube(testDim)
	emdP := emd.DefaultParams(space, testCapacity, 4, 7)
	gapP := gap.Params{Space: space, N: testCapacity, R1: 2, R2: 16, Seed: 8}
	configs := map[string]live.Config{
		"sync":     {Sync: &live.SyncConfig{Seed: testSyncSeed}},
		"emd-only": {EMD: &emdP},
		"gap-only": {Gap: &gapP},
	}
	stores := make([]*store.Store, 2)
	for node := range stores {
		stores[node] = store.New()
		for name, cfg := range configs {
			pts := append(testPoints(20, 1), testPoints(5, uint64(100+node))...)
			if _, err := stores[node].Create(name, cfg, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	served := newServedCounter()
	nodes, net := startMeshOver(t, stores, served)
	for round := 0; round < 3; round++ {
		for i, n := range nodes {
			if _, err := n.ReconcileOnce(); err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
		}
		settle(nodes)
	}
	for i, n := range nodes {
		metrics := n.Metrics()
		for name, m := range metrics {
			if m.ProbeFailures != 0 || m.RepairFailures != 0 {
				t.Errorf("node %d set %q: %d probe and %d repair failures", i, name, m.ProbeFailures, m.RepairFailures)
			}
		}
		for _, name := range []string{"emd-only", "gap-only"} {
			if m, ok := metrics[name]; ok {
				t.Errorf("node %d reconciled set %q without Sync: %v", i, name, m)
			}
		}
		if !n.Converged(1) {
			t.Errorf("node %d does not report convergence: %v", i, metrics)
		}
	}
	if got := served.get(netproto.ProtoRepair); got == 0 {
		t.Error("the diverged Sync set converged without a repair")
	}

	ls, _ := nodes[0].store.Get("emd-only")
	snap := ls.Snapshot()
	recv := netproto.NewLiveEMDReceiver(emdP, snap.Points, nil)
	d := session.Dialer{Network: "sim", Addr: "node0:1", Set: "emd-only", Transport: net.Host("client")}
	if _, err := d.Do(recv); err != nil {
		t.Fatalf("live-emd from the EMD-only set: %v", err)
	}
	if recv.Epoch != snap.Epoch || recv.Result.Failed || len(recv.Result.SPrime) != len(snap.Points) {
		t.Fatalf("live-emd served epoch %d, failed %v, %d points; want %d, false, %d",
			recv.Epoch, recv.Result.Failed, len(recv.Result.SPrime), snap.Epoch, len(snap.Points))
	}
}

// TestClusterPartitionRejoin: one node leaves, the survivors keep
// churning and converge among themselves; the node rejoins (fresh
// address, same store) and catches up.
func TestClusterPartitionRejoin(t *testing.T) {
	nodes, net := startMesh(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// C leaves the mesh.
	if err := c.Close(time.Second); err != nil {
		t.Fatalf("close c: %v", err)
	}
	// Survivors churn and converge; probes of the dead member fail, so
	// rounds report errors and back off — but a and b still reconcile
	// with each other.
	for round := 0; round < 12; round++ {
		churn(t, a, uint64(900+round))
		a.ReconcileOnce() //nolint:errcheck // c is down; errors expected
		b.ReconcileOnce() //nolint:errcheck
		settle([]*Node{a, b})
		if pairConverged(a, b) {
			break
		}
	}
	if !pairConverged(a, b) {
		t.Fatal("survivors did not converge during the partition")
	}

	// C rejoins: same store, fresh node and address; the member lists
	// update (a membership change, as a real rejoin would deliver).
	c2, err := New(Config{
		Store:     c.store,
		Network:   "sim",
		Interval:  -1,
		Seed:      77,
		Logf:      t.Logf,
		Transport: net.Host("node2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := c2.Start("node2:2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close(time.Second) }) //nolint:errcheck
	cAddr := l.Addr().String()
	aL, bL := a.Peers(), b.Peers()
	a.SetPeers([]string{aL[0], cAddr})
	b.SetPeers([]string{bL[0], cAddr})
	c2.SetPeers([]string{aL[0], bL[0]})

	all := []*Node{a, b, c2}
	for round := 0; round < 12; round++ {
		for i, n := range all {
			if _, err := n.ReconcileOnce(); err != nil {
				// Backoff from the partition may still be draining;
				// tolerate errors for a few rounds.
				t.Logf("rejoin round %d node %d: %v", round, i, err)
			}
		}
		settle(all)
		if meshConverged(t, all) {
			t.Logf("rejoined after %d rounds", round+1)
			return
		}
	}
	t.Fatal("rejoined node did not catch up within 12 rounds")
}

// TestClusterNetworkPartitionHeals drives a true network partition (the
// nodes stay up; the simnet refuses cross-group dials) rather than a
// member death: the majority side keeps churning, the minority backs
// off, and after the heal the whole mesh converges again.
func TestClusterNetworkPartitionHeals(t *testing.T) {
	nodes, net := startMesh(t, 3)

	// Everyone level first.
	for round := 0; round < 6; round++ {
		for _, n := range nodes {
			n.ReconcileOnce() //nolint:errcheck
		}
		settle(nodes)
		if meshConverged(t, nodes) {
			break
		}
	}
	if !meshConverged(t, nodes) {
		t.Fatal("mesh did not level before the partition")
	}

	net.Partition([]string{"node0", "node1"}, []string{"node2"})
	sawPartitionErr := false
	for round := 0; round < 4; round++ {
		churn(t, nodes[0], uint64(7000+round))
		for _, n := range nodes {
			if _, err := n.ReconcileOnce(); err != nil {
				sawPartitionErr = true
			}
		}
		settle(nodes)
	}
	if !sawPartitionErr {
		t.Fatal("no reconcile error during the partition; the fault never bit")
	}
	if pairConverged(nodes[0], nodes[2]) {
		t.Fatal("minority node converged across the partition")
	}
	if !pairConverged(nodes[0], nodes[1]) {
		t.Fatal("majority side did not converge during the partition")
	}

	net.Heal()
	// Backoff from the partition drains within maxBackoff (8) rounds.
	for round := 0; round < 20; round++ {
		for _, n := range nodes {
			n.ReconcileOnce() //nolint:errcheck
		}
		settle(nodes)
		if meshConverged(t, nodes) {
			t.Logf("healed after %d rounds", round+1)
			return
		}
	}
	t.Fatal("mesh did not converge after the heal")
}

func pairConverged(a, b *Node) bool {
	for _, name := range []string{"", "alpha", "beta"} {
		la, _ := a.store.Get(name)
		lb, _ := b.store.Get(name)
		if la.IDFingerprint() != lb.IDFingerprint() {
			return false
		}
	}
	return true
}

// TestBackoffAfterDeadPeer: with every peer unreachable, the set backs
// off exponentially instead of hammering the dead address each round.
func TestBackoffAfterDeadPeer(t *testing.T) {
	st := testStore(t, 0)
	net := simnet.New(3)
	n, err := New(Config{
		Store:     st,
		Network:   "sim",
		Interval:  -1,
		Peers:     []string{"ghost:1"}, // no such listener
		Transport: net.Host("node0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Start("node0:1")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(time.Second) //nolint:errcheck
	_ = l
	for i := 0; i < 8; i++ {
		n.ReconcileOnce() //nolint:errcheck
	}
	m := n.Metrics()["alpha"]
	if m.ProbeFailures == 0 {
		t.Fatal("no probe failures against a dead peer")
	}
	if m.Skipped == 0 {
		t.Fatalf("no backoff skips after repeated failures: %+v", m)
	}
	if m.Probes >= 8 {
		t.Fatalf("backoff did not reduce probing: %d probes in 8 rounds", m.Probes)
	}
	if n.Converged(1) {
		t.Fatal("node reports convergence with all peers dead")
	}
}

// TestReconcileRespectsDroppedSets: dropping a set mid-life stops its
// reconciliation without disturbing the others.
func TestReconcileRespectsDroppedSets(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	a, b := nodes[0], nodes[1]
	if !a.store.Drop("beta") {
		t.Fatal("drop failed")
	}
	var lastErr error
	for i := 0; i < 10; i++ {
		_, errA := a.ReconcileOnce()
		_, errB := b.ReconcileOnce()
		if errA != nil {
			lastErr = errA
		}
		if errB != nil {
			lastErr = errB
		}
	}
	settle(nodes)
	// b still hosts beta and probes a for it; a rejects with unknown
	// set — that error must not prevent alpha/default convergence.
	for _, name := range []string{"", "alpha"} {
		la, _ := a.store.Get(name)
		lb, _ := b.store.Get(name)
		if la.IDFingerprint() != lb.IDFingerprint() {
			t.Fatalf("set %q did not converge (last err: %v)", name, lastErr)
		}
	}
	if lastErr == nil {
		t.Fatal("expected unknown-set probe errors for the dropped set")
	}
	if fmt.Sprint(lastErr) == "" {
		t.Fatal("empty error")
	}
}

// TestCloseReleasesCarriers: Close hangs up the node's pooled outbound
// carriers itself instead of leaving them to its peers' shutdown: once
// node 0 has closed, no connection stays open while node 1 still runs.
func TestCloseReleasesCarriers(t *testing.T) {
	nodes, net := startMesh(t, 2)
	if _, err := nodes[0].ReconcileOnce(); err != nil {
		t.Fatal(err)
	}
	settle(nodes)
	if net.OpenConns() == 0 {
		t.Fatal("no carrier open after a round")
	}
	if err := nodes[0].Close(time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); net.OpenConns() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection ends still open 5s after node 0 closed", net.OpenConns())
		}
	}
}

// TestCloseRightAfterStart: Close stops the reconciler loop whether the
// loop's goroutine has not run yet or is in the middle of a round, and
// returns promptly either way.
func TestCloseRightAfterStart(t *testing.T) {
	st := testStore(t, 0)
	net := simnet.New(5)
	for i := 0; i < 200; i++ {
		addr := fmt.Sprintf("node0:%d", i+1)
		n, err := New(Config{
			Store:     st,
			Network:   "sim",
			Interval:  time.Millisecond,
			Peers:     []string{addr}, // itself, so rounds do real work
			Transport: net.Host("node0"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Start(addr); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			time.Sleep(time.Duration(i%3) * time.Millisecond) // let rounds start
		}
		closed := make(chan struct{})
		go func() {
			n.Close(time.Second) //nolint:errcheck
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close did not return within 5s", i)
		}
	}
}

package cluster

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/placement"
)

// Gossip-fed membership and ring placement. With Config.Membership set,
// the node stops treating its peer list and hosted-set roster as static
// facts: the member table is maintained by SWIM-style exchanges
// (GossipOnce), and which sets this node hosts follows the consistent-
// hash ring over the live members (ApplyPlacement). The reconciler
// itself is unchanged — it still probes d choices and repairs the most
// divergent — but its peer pool per set becomes that set's co-owner
// replica group instead of the whole mesh.
//
// Handoff discipline: gaining a set means creating it empty and letting
// the ordinary repair path pull the content from the surviving owners.
// Losing a set never drops it immediately — the set enters a
// relinquishing state in which each round probes ALL current owners,
// and only a round where every owner answered and every fingerprint
// matched drops the local copy (repair is a union exchange, so
// fingerprint equality proves the owners hold everything this node
// holds). An empty relinquished set drops at once; there is nothing to
// hand off.

// GossipStats reports one GossipOnce round.
type GossipStats struct {
	// Exchanged / Failed count the round's push-pull attempts.
	Exchanged int
	Failed    int
	// Changed reports whether the member table changed this round
	// (including suspicion aging, not just exchange merges).
	Changed bool
	// Active / Total are the member counts after the round.
	Active int
	Total  int
}

// GossipOnce runs one membership round: push-pull with Fanout random
// partners, mark the unreachable ones suspect, age suspicion one tick,
// and re-apply placement if the table changed. Drive it once per
// reconciliation round (the background loop does; so does the
// deterministic harness). No-op without Config.Membership.
func (n *Node) GossipOnce() GossipStats {
	g := n.cfg.Membership
	if g == nil {
		return GossipStats{}
	}
	before := g.Version()
	var st GossipStats
	for _, addr := range g.Targets(0) {
		ex := g.Initiator()
		if err := n.do(addr, "", ex); err != nil {
			g.MarkFailed(addr)
			st.Failed++
			n.cfg.Logf("cluster: gossip %s: %v", addr, err)
			continue
		}
		st.Exchanged++
	}
	g.Tick()
	st.Changed = g.Version() != before
	st.Active, st.Total = g.AliveCount()
	n.ApplyPlacement()
	return st
}

// ApplyPlacement recomputes the ring over the current member table and
// reconciles the local set roster against it: owned-but-missing sets
// are created empty (repair pulls their content), hosted-but-not-owned
// sets enter the relinquishing handoff, and every managed set's
// co-owner pool is refreshed for peer selection. The peer list
// (SetPeers's state) becomes the active member list. Idempotent and
// cheap when the table has not changed since the last application.
// No-op without Config.Membership or an empty Catalog.
func (n *Node) ApplyPlacement() {
	g := n.cfg.Membership
	if g == nil || len(n.catalogNames) == 0 {
		return
	}
	v := g.Version()
	n.mu.Lock()
	if n.placementApplied && v == n.appliedVersion {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	active := g.Active()
	self := g.Self()
	ring := placement.New(active, n.cfg.VNodes, n.cfg.PlacementSeed)
	asn := ring.Assign(n.catalogNames, n.cfg.Replication, n.cfg.PlacementSlack)

	selfActive := false
	peers := make([]string, 0, len(active))
	for _, a := range active {
		if a == self {
			selfActive = true
			continue
		}
		peers = append(peers, a)
	}

	owners := make(map[string][]string, len(asn))
	var toCreate []string
	for _, name := range n.catalogNames {
		selfOwns := false
		coOwners := make([]string, 0, len(asn[name]))
		for _, o := range asn[name] {
			if o == self {
				selfOwns = true
				continue
			}
			coOwners = append(coOwners, o)
		}
		owners[name] = coOwners
		_, hosted := n.store.Get(name)
		if selfOwns && selfActive && !hosted {
			toCreate = append(toCreate, name)
		}
	}
	for _, name := range toCreate {
		if _, err := n.store.Create(name, n.catalog[name], nil); err != nil {
			n.cfg.Logf("cluster: placement create %q: %v", name, err)
			continue
		}
		n.cfg.Logf("cluster: placement acquired %q (owners %v)", name, asn[name])
	}

	n.mu.Lock()
	n.owners = owners
	n.peers = peers
	n.appliedVersion = v
	n.placementApplied = true
	acquired := 0
	for _, name := range toCreate {
		if _, hosted := n.store.Get(name); hosted {
			acquired++
		}
	}
	n.placeStats.Acquired += uint64(acquired)
	// Relinquish flags follow ownership; sets the ring handed back to
	// this node simply leave the relinquishing state with their content
	// intact (the drop never ran, so nothing was lost to the flap).
	for _, name := range n.catalogNames {
		selfOwns := false
		for _, o := range asn[name] {
			if o == self {
				selfOwns = true
				break
			}
		}
		_, hosted := n.store.Get(name)
		if !selfOwns && hosted {
			n.relinquish[name] = true
		} else {
			delete(n.relinquish, name)
		}
	}
	n.mu.Unlock()
}

// dropHandedOff completes a relinquishing set's handoff: drop the local
// copy and forget its reconciliation state, so a future re-acquisition
// starts from a clean slate.
func (n *Node) dropHandedOff(name string) {
	if !n.store.Drop(name) {
		return
	}
	n.mu.Lock()
	delete(n.metrics, name)
	delete(n.relinquish, name)
	n.placeStats.Dropped++
	n.mu.Unlock()
	n.cfg.Logf("cluster: placement handed off %q", name)
}

// Members returns a snapshot of the gossiped member table, or nil when
// the node is not in gossip mode — the admin API's membership view.
func (n *Node) Members() []gossip.Member {
	if n.cfg.Membership == nil {
		return nil
	}
	return n.cfg.Membership.Snapshot()
}

// SetPlacement is one catalog set's placement state on this node: its
// current co-owner group (self excluded) and whether the local copy is
// awaiting handoff confirmation before dropping.
type SetPlacement struct {
	Owners        []string
	Relinquishing bool
}

// PlacementView returns the ring-managed sets' placement state, keyed
// by set name. Empty (not nil-vs-empty significant) outside placement
// mode or before the first placement application.
func (n *Node) PlacementView() map[string]SetPlacement {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]SetPlacement, len(n.owners))
	for name, owners := range n.owners {
		out[name] = SetPlacement{
			Owners:        append([]string(nil), owners...),
			Relinquishing: n.relinquish[name],
		}
	}
	for name := range n.relinquish {
		if _, ok := out[name]; !ok {
			out[name] = SetPlacement{Relinquishing: true}
		}
	}
	return out
}

// PlacementStats counts ring-driven roster changes on this node.
type PlacementStats struct {
	// Acquired counts sets created because the ring assigned them here.
	Acquired uint64
	// Dropped counts sets dropped after a confirmed handoff.
	Dropped uint64
	// Relinquishing is the current count of sets awaiting handoff
	// confirmation.
	Relinquishing int
}

// Placement returns the node's placement counters.
func (n *Node) Placement() PlacementStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.placeStats
	st.Relinquishing = len(n.relinquish)
	return st
}

// Leave departs the mesh gracefully: push local state to each set's
// co-owners one final time, announce the departure to every active
// member (so ownership moves on the next placement application, not
// after a suspicion timeout), and shut down. Without Membership it is
// just Close.
func (n *Node) Leave(drain time.Duration) error {
	g := n.cfg.Membership
	if g != nil {
		// Final reconciliation: fingerprint-converged co-owners already
		// hold everything; diverged ones receive our exclusive points via
		// the union repair.
		if _, err := n.ReconcileOnce(); err != nil {
			n.cfg.Logf("cluster: leave reconcile: %v", err)
		}
		g.SetLeft()
		for _, addr := range g.Active() {
			if addr == g.Self() {
				continue
			}
			if err := n.do(addr, "", g.Initiator()); err != nil {
				n.cfg.Logf("cluster: leave announce %s: %v", addr, err)
			}
		}
	}
	return n.Close(drain)
}

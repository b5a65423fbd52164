package scenario

import (
	"fmt"
	"time"
)

// Builtin returns the shipped scenario catalog, in a stable order.
// Each is a whole-stack robustness claim: the mesh converges every
// hosted set to the planted ground-truth union despite the scripted
// faults, leaks nothing, and produces a seed-reproducible trace.
func Builtin() []Scenario {
	return []Scenario{
		{
			Name:  "partition-rejoin",
			Desc:  "3-node mesh; one node is partitioned away at round 1 while churn continues everywhere, the partition heals at round 6, and the mesh must re-converge (the returning node catching up via delta pulls and exact repair).",
			Nodes: 3,
			Sets: []SetSpec{
				{Name: "", Base: 20, PerNode: 5, Capacity: 256},
				{Name: "alpha", Base: 20, PerNode: 5, EMD: true, Capacity: 256},
				{Name: "beta", Base: 16, PerNode: 4, Capacity: 256},
			},
			Rounds:      30,
			ChurnRounds: 6,
			Faults: []Fault{
				{Round: 1, Kind: "partition", Groups: [][]int{{0, 1}, {2}}},
				{Round: 6, Kind: "heal"},
			},
			Streak: 2,
		},
		{
			Name:  "asymmetric-latency",
			Desc:  "3-node mesh with skewed link latencies (one fast pair, one slow pair) and a bandwidth cap on the slow link; convergence must not depend on uniform timing.",
			Nodes: 3,
			Sets: []SetSpec{
				{Name: "", Base: 20, PerNode: 5, Capacity: 256},
				{Name: "alpha", Base: 16, PerNode: 4, EMD: true, Capacity: 256},
			},
			Rounds:      20,
			ChurnRounds: 4,
			Faults: []Fault{
				{Round: 0, Kind: "latency", From: 0, To: 1, Min: 50 * time.Microsecond, Max: 200 * time.Microsecond},
				{Round: 0, Kind: "latency", From: 0, To: 2, Min: 1 * time.Millisecond, Max: 3 * time.Millisecond},
				{Round: 0, Kind: "latency", From: 1, To: 2, Min: 200 * time.Microsecond, Max: 500 * time.Microsecond},
				{Round: 0, Kind: "bandwidth", From: 0, To: 2, BPS: 2 << 20},
			},
			Streak: 2,
		},
		{
			Name:  "flaky-link-soak",
			Desc:  "4-node mesh soaked with random one-shot connection drops (a random link loses its next connection at a random byte offset, every round for 10 rounds) while churn runs; repair must retry around the flaps and still converge exactly.",
			Nodes: 4,
			Sets: []SetSpec{
				{Name: "", Base: 20, PerNode: 5, Capacity: 256},
				{Name: "alpha", Base: 16, PerNode: 4, EMD: true, Capacity: 256},
			},
			Rounds:      40,
			ChurnRounds: 8,
			Flaky:       &Flaky{Rounds: 10, MaxOffset: 4096},
			Streak:      2,
		},
		{
			Name:  "mesh-10",
			Desc:  "10-node mesh: power-of-two-choices probing must spread the anti-entropy work and converge the whole mesh in a bounded number of rounds.",
			Nodes: 10,
			Sets: []SetSpec{
				{Name: "", Base: 16, PerNode: 3, Capacity: 512},
				{Name: "alpha", Base: 12, PerNode: 2, EMD: true, Capacity: 256},
			},
			Rounds:      40,
			ChurnRounds: 3,
			Streak:      1,
		},
		{
			Name:  "crash-recover",
			Desc:  "3-node durable mesh; node 2 is killed mid-churn (journal abandoned, no final snapshot), restarts from disk at round 6 with fingerprints matching the journal ground truth, and must re-converge via delta repair — the points it pulls after restart are bounded by what it actually missed, never a full transfer.",
			Nodes: 3,
			Sets: []SetSpec{
				{Name: "", Base: 120, PerNode: 6, Capacity: 512},
				{Name: "alpha", Base: 100, PerNode: 4, EMD: true, Capacity: 256},
			},
			Rounds:      30,
			ChurnRounds: 6,
			Durable:     true,
			Faults: []Fault{
				{Round: 2, Kind: "kill", From: 2},
				{Round: 6, Kind: "restart", From: 2},
			},
			Streak: 2,
		},
		{
			Name:  "mesh-10-latency",
			Desc:  "mesh-10 on a uniformly slow WAN: every link carries 40..120µs per write and a dial costs a full round trip, so the mesh is latency-bound — pooled v3 carriers with pipelined (Pipeline=4) rounds must amortize dials across sets and still converge exactly.",
			Nodes: 10,
			Sets: []SetSpec{
				{Name: "", Base: 16, PerNode: 3, Capacity: 512},
				{Name: "alpha", Base: 12, PerNode: 2, EMD: true, Capacity: 256},
			},
			Rounds:      40,
			ChurnRounds: 2,
			Streak:      1,
			Pipeline:    4,
			LatencyMin:  40 * time.Microsecond,
			LatencyMax:  120 * time.Microsecond,
		},
		{
			Name:          "gossip-mesh-10",
			Desc:          "10-node sharded mesh (gossip membership + ring placement, R=3): a 2-way partition splits the member view mid-churn — each side suspects, reassigns, and re-replicates within itself — then heals; a graceful leave moves its shards to new owners. Every shard must end on exactly its ring-assigned owners, fingerprint-equal, within the bounded-loads budget.",
			Nodes:         10,
			Sets:          gossipSets(6, 16, 3, 256),
			Rounds:        60,
			ChurnRounds:   3,
			Gossip:        true,
			Replication:   3,
			SuspectRounds: 2,
			Faults: []Fault{
				{Round: 4, Kind: "partition", Groups: [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}},
				{Round: 7, Kind: "heal"},
				{Round: 10, Kind: "leave", From: 9},
			},
			Streak: 2,
		},
		{
			Name:      "poisoned-peer",
			Desc:      "4-node mesh with one byzantine member (node 3) that serves corrupted repair payloads and never initiates; a flip fault also garbles the carrier hello on an honest link at round 0, failing that one session (the next one re-dials a fresh carrier). Honest nodes must verify-before-merge (zero corrupt points accepted), converge to the honest ground truth anyway, and every honest health ledger must end with the byzantine peer quarantined.",
			Nodes:     4,
			Byzantine: []int{3},
			Choices:   3,
			Sets: []SetSpec{
				{Name: "", Base: 20, PerNode: 5, Capacity: 256},
				{Name: "alpha", Base: 16, PerNode: 4, EMD: true, Capacity: 256},
			},
			Rounds:      30,
			ChurnRounds: 3,
			Faults: []Fault{
				{Round: 0, Kind: "flip", From: 1, To: 2, Offset: 8, Count: 4},
			},
			Streak: 2,
		},
		{
			Name:          "mesh-100",
			Desc:          "100-node sharded mesh, 24 shards at R=3 — per-node bounded-loads budget of ONE shard. Churn, then a 50/50 partition (both halves suspect the other dead and re-own every shard locally), a heal (resurrection probes re-merge the views, temp owners hand off after confirming the real owners hold everything), a graceful leave, and a rejoin of the same address (incarnation bump overrides its own left entry). Converges deterministically to exactly-R ownership with no shard over budget and no point lost.",
			Nodes:         100,
			Sets:          gossipSets(24, 12, 4, 256),
			Rounds:        80,
			ChurnRounds:   3,
			Gossip:        true,
			Replication:   3,
			GossipFanout:  3,
			SuspectRounds: 3,
			Faults: []Fault{
				{Round: 4, Kind: "partition", Groups: [][]int{
					{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
						20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
						40, 41, 42, 43, 44, 45, 46, 47, 48, 49},
				}},
				{Round: 8, Kind: "heal"},
				{Round: 12, Kind: "leave", From: 7},
				{Round: 16, Kind: "join", From: 7},
			},
			Streak: 2,
		},
	}
}

// gossipSets generates n uniform shard specs for the sharded scenarios.
func gossipSets(n, base, perNode, capacity int) []SetSpec {
	out := make([]SetSpec, n)
	for i := range out {
		out[i] = SetSpec{
			Name:     fmt.Sprintf("shard-%02d", i),
			Base:     base,
			PerNode:  perNode,
			Capacity: capacity,
		}
	}
	return out
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Builtin() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

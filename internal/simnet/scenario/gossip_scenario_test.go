package scenario

import (
	"strings"
	"testing"
)

// TestGossipShardingScenario drives the small sharded scenario and
// asserts the gossip/placement machinery actually engaged: membership
// rounds ran, the partition forced suspicion-driven reassignment
// (handoffs appear once the view heals), the graceful leave moved
// ownership, and the final placement check pinned every shard to
// exactly its ring owners within the load budget.
func TestGossipShardingScenario(t *testing.T) {
	sc, ok := Lookup("gossip-mesh-10")
	if !ok {
		t.Fatal("gossip-mesh-10 not in catalog")
	}
	res, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v\ntrace:\n%s", res.Failures, res.TraceText())
	}
	trace := res.TraceText()
	for _, want := range []string{
		"gossip: ",             // membership rounds ran
		"fault: partition",     // the split was applied
		"fault: heal",          //   ...and healed
		"fault: leave node9",   // graceful departure
		"placement: ok",        // final exact-owner + load-budget check
		"ground truth: 6 sets", // no point lost across all the moves
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// The partition must actually bite: cross-side exchanges fail (a
	// gossip line with a non-zero failure count), and the suspicion-
	// driven reassignment must disturb hosting — some state line shows a
	// shard off its target host count ("!") or diverged mid-repair.
	sawFailed, sawDisturbed := false, false
	for _, line := range res.Trace() {
		if strings.HasPrefix(line, "gossip: ") && !strings.Contains(line, " 0 failed") {
			sawFailed = true
		}
		if strings.HasPrefix(line, "state: ") &&
			(strings.Contains(line, "!") || strings.Contains(line, "DIVERGED")) {
			sawDisturbed = true
		}
	}
	if !sawFailed {
		t.Error("no failed gossip exchanges despite a 2-way partition")
	}
	if !sawDisturbed {
		t.Error("hosting never disturbed: partition/leave did not move any shard")
	}
}

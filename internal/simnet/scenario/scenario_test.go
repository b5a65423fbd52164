package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestBuiltinScenariosConverge is the acceptance sweep: every shipped
// scenario, run at a fixed seed, must end with all nodes' sets
// converged (fingerprint-equal AND equal to the planted ground-truth
// union), no leaked connections, and a clean pooled-buffer canary.
// Run under -race in CI.
func TestBuiltinScenariosConverge(t *testing.T) {
	for _, sc := range Builtin() {
		t.Run(sc.Name, func(t *testing.T) {
			if raceEnabled && sc.Nodes >= 100 {
				t.Skip("mesh-100 is covered uninstrumented (TestReplayDeterminism/mesh-100)")
			}
			t.Parallel() // independent networks; inner driving stays sequential
			res, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				for _, f := range res.Failures {
					t.Errorf("invariant: %s", f)
				}
				t.Logf("trace:\n%s", res.TraceText())
			}
			if res.ConvergedRound < 0 {
				t.Fatalf("never converged in %d rounds", res.RoundsRun)
			}
			t.Logf("%s: converged at round %d of %d", sc.Name, res.ConvergedRound, res.RoundsRun)
		})
	}
}

// replaySeeds is the seed a builtin scenario's replay check runs at
// when it is not 42.
var replaySeeds = map[string]uint64{"flaky-link-soak": 7, "mesh-10": 9, "mesh-10-latency": 11}

// TestReplayDeterminism runs every builtin scenario twice at the same
// seed and requires byte-identical traces — the property that makes a
// simnet failure reproducible from nothing but its seed — and once at
// the next seed, whose trace must differ. mesh-100 runs uninstrumented
// only, and not under -short.
func TestReplayDeterminism(t *testing.T) {
	for _, sc := range Builtin() {
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Nodes >= 100 && raceEnabled {
				t.Skip("mesh-100 replays uninstrumented; gossip-mesh-10 carries the race coverage")
			}
			if sc.Nodes >= 100 && testing.Short() {
				t.Skip("mesh-100 replay is the long gate; run without -short")
			}
			t.Parallel() // independent networks; inner driving stays sequential
			seed, ok := replaySeeds[sc.Name]
			if !ok {
				seed = 42
			}
			r1, err := Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Ok() {
				t.Fatalf("invariants failed: %v", r1.Failures)
			}
			r2, err := Run(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			t1, t2 := r1.TraceText(), r2.TraceText()
			if t1 != t2 {
				a, b := strings.Split(t1, "\n"), strings.Split(t2, "\n")
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						t.Fatalf("traces diverge at line %d:\n  run1: %s\n  run2: %s", i+1, a[i], b[i])
					}
				}
				t.Fatalf("traces differ in length: %d vs %d lines", len(a), len(b))
			}
			// Different seeds must explore different executions (otherwise
			// the seed plumbing is dead and the determinism above is
			// vacuous).
			r3, err := Run(sc, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			if r3.TraceText() == t1 {
				t.Fatalf("seed %d and seed %d produced identical traces; seed is not reaching the run", seed, seed+1)
			}
			t.Logf("seed %d: converged at round %d, %d sessions over %d dials, %d probes",
				seed, r1.ConvergedRound, r1.Sessions, r1.Dials, r1.Probes)
		})
	}
}

// TestPartitionActuallyPartitions asserts the scripted fault bites: the
// trace of partition-rejoin must show refused cross-partition dials
// before the heal, and the isolated node must still catch up after.
func TestPartitionActuallyPartitions(t *testing.T) {
	sc, _ := Lookup("partition-rejoin")
	res, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	trace := res.TraceText()
	if !strings.Contains(trace, "host unreachable (partition)") {
		t.Fatal("no cross-partition dial was refused; the partition fault never bit")
	}
	if !strings.Contains(trace, "fault: heal") {
		t.Fatal("heal fault missing from trace")
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v", res.Failures)
	}
}

// TestFlakyDropsBite asserts the soak scenario's random drops actually
// sever connections mid-protocol — at seed 42 at least 4 of the 10
// armed drops fire as cuts in the trace — and the mesh still converges
// exactly.
func TestFlakyDropsBite(t *testing.T) {
	sc, _ := Lookup("flaky-link-soak")
	res, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	trace := res.TraceText()
	armed, fired := strings.Count(trace, "fault: flaky drop"), strings.Count(trace, "(drop-at-offset @")
	if armed != 10 || fired < 4 {
		t.Fatalf("%d of %d armed drops cut a connection, want at least 4 of 10", fired, armed)
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v", res.Failures)
	}
}

// TestScenarioValidation pins the error paths of Run.
func TestScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{Name: "x", Nodes: 1, Rounds: 1, Sets: []SetSpec{{}}}, 1); err == nil {
		t.Fatal("1-node scenario accepted")
	}
	if _, err := Run(Scenario{Name: "x", Nodes: 2, Rounds: 1}, 1); err == nil {
		t.Fatal("0-set scenario accepted")
	}
	if _, err := Run(Scenario{Name: "x", Nodes: 2, Sets: []SetSpec{{Base: 2}}}, 1); err == nil {
		t.Fatal("0-round scenario accepted")
	}
}

// TestDownLinkFaultSchedule exercises the down/up fault kinds on a
// custom scenario: the link is down for the early rounds (probe
// failures and backoff), comes back, and the pair still converges.
func TestDownLinkFaultSchedule(t *testing.T) {
	sc := Scenario{
		Name:        "down-up",
		Nodes:       2,
		Sets:        []SetSpec{{Name: "", Base: 10, PerNode: 3, Capacity: 128}},
		Rounds:      24,
		ChurnRounds: 2,
		Faults: []Fault{
			{Round: 0, Kind: "down", From: 0, To: 1},
			{Round: 4, Kind: "up", From: 0, To: 1},
		},
	}
	res, err := Run(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceText(), "link down") {
		t.Fatal("down fault never bit")
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v\ntrace:\n%s", res.Failures, res.TraceText())
	}
}

// TestLatencyScenarioBounded keeps the asymmetric-latency run's wall
// clock sane: injected delays are microsecond-to-millisecond scale and
// must not balloon the run (which would mean delays are being applied
// somewhere they shouldn't).
func TestLatencyScenarioBounded(t *testing.T) {
	sc, _ := Lookup("asymmetric-latency")
	start := time.Now()
	res, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v", res.Failures)
	}
	if d := time.Since(start); d > 2*time.Minute {
		t.Fatalf("asymmetric-latency took %v; injected latency is compounding somewhere", d)
	}
}

// TestCrashRecoverScenario pins the durable kill/restart semantics:
// the killed node sits out its down rounds, restarts with fingerprints
// matching the kill-time journal ground truth (a mismatch is a Failure,
// so Ok() covers it), re-converges within the delta bound, and the
// whole run replays byte-identically from its seed.
func TestCrashRecoverScenario(t *testing.T) {
	sc, ok := Lookup("crash-recover")
	if !ok {
		t.Fatal("crash-recover scenario missing from catalog")
	}
	a, err := Run(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Ok() {
		for _, f := range a.Failures {
			t.Errorf("invariant: %s", f)
		}
		t.Fatalf("trace:\n%s", a.TraceText())
	}
	trace := a.TraceText()
	for _, want := range []string{
		"fault: kill node2",
		"node 2: down",
		"fault: restart node2 (recovered 2 sets",
		"recovery: 1 restarted nodes re-converged within the delta bound",
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace is missing %q", want)
		}
	}
	b, err := Run(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if trace != b.TraceText() {
		t.Fatalf("crash-recover trace is not replay-deterministic")
	}
}

// TestKillRequiresDurable rejects kill/restart faults on a
// non-durable scenario at validation time.
func TestKillRequiresDurable(t *testing.T) {
	sc, _ := Lookup("crash-recover")
	sc.Durable = false
	if _, err := Run(sc, 1); err == nil {
		t.Fatal("kill fault accepted without Durable")
	}
}

// TestPoisonedPeerRedialsCarrier pins poisoned-peer's round-0 flip: the
// garbled carrier hello on node1->node2 fails that one session and the
// next session re-dials a carrier, so the whole run stays on pooled
// carriers (fewer than 20 dials) while every byzantine invariant —
// honest convergence, zero corrupt points accepted, the byzantine peer
// quarantined on every honest ledger — still holds (Ok covers them).
func TestPoisonedPeerRedialsCarrier(t *testing.T) {
	sc, _ := Lookup("poisoned-peer")
	res, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("invariants failed: %v\ntrace:\n%s", res.Failures, res.TraceText())
	}
	trace := res.TraceText()
	for _, want := range []string{"net: flip node1->node2", "carrier negotiation with node2"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace is missing %q; the flip fault never bit the carrier hello", want)
		}
	}
	var sessions, dials, reuses uint64
	found := false
	for _, line := range res.Trace() {
		if strings.HasPrefix(line, "net: ") {
			if _, err := fmt.Sscanf(line, "net: %d sessions over %d dials (%d reused)", &sessions, &dials, &reuses); err == nil {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no net: summary line in trace:\n%s", trace)
	}
	if dials >= 20 || dials != res.Dials {
		t.Fatalf("net: %d sessions over %d dials (result %d): want fewer than 20 dials", sessions, dials, res.Dials)
	}
}

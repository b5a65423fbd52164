package scenario

import (
	"slices"
	"testing"
)

// TestMuxDialAmortization is the dial-economy gate for pooled carriers:
// a mesh dials at most one carrier per directed peer pair, front-loads
// those dials (round 0, plus prewarm when pipelined), and its steady
// rounds dial nothing — reconciliation rides the established carriers.
// The two-node input pins its per-round dials exactly: two nodes, two
// sets, both sessions of a round pipelined on one carrier per direction.
// Dial decisions do not depend on link latency, so it runs at zero.
func TestMuxDialAmortization(t *testing.T) {
	pipelined := Scenario{
		Name:  "two-node-pipelined",
		Nodes: 2,
		Sets: []SetSpec{
			{Name: "", Base: 48, PerNode: 6},
			{Name: "beta", Base: 48, PerNode: 6},
		},
		Rounds:      10,
		ChurnRounds: 2,
		Streak:      1,
		Pipeline:    2,
	}
	cases := []struct {
		sc    Scenario
		dials []uint64 // exact per-round dials; nil checks only the bounds
	}{
		{sc: mustLookup(t, "asymmetric-latency")},
		{sc: mustLookup(t, "mesh-10-latency")},
		{sc: pipelined, dials: []uint64{2, 0, 0}},
	}
	for _, tc := range cases {
		sc := tc.sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("run failed invariants:\n%s", res.TraceText())
			}
			if res.ConvergedRound < 0 {
				t.Fatal("run never converged")
			}
			if tc.dials != nil && !slices.Equal(res.DialsByRound, tc.dials) {
				t.Fatalf("per-round dials %v, want %v", res.DialsByRound, tc.dials)
			}
			if len(res.DialsByRound) < 2 {
				t.Fatalf("per-round dials %v: want round 0 plus steady rounds", res.DialsByRound)
			}
			for r, d := range res.DialsByRound[1:] {
				if d != 0 {
					t.Fatalf("steady round %d dialed %d carriers (per-round %v)", r+1, d, res.DialsByRound)
				}
			}
			if pairs := uint64(sc.Nodes * (sc.Nodes - 1)); res.Dials > pairs {
				t.Fatalf("%d dials for %d directed peer pairs", res.Dials, pairs)
			}
			t.Logf("%s: %d dials / %d sessions (per-round %v)", sc.Name, res.Dials, res.Sessions, res.DialsByRound)
		})
	}
}

func mustLookup(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

package scenario

import "testing"

// TestMuxDialAmortization is the dial-economy gate for pooled carriers:
// a mesh dials at most one carrier per directed peer pair, front-loads
// those dials (round 0, plus prewarm when pipelined), and its steady
// rounds dial nothing — reconciliation rides the established carriers.
func TestMuxDialAmortization(t *testing.T) {
	for _, name := range []string{"asymmetric-latency", "mesh-10-latency"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
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
			t.Logf("%s: %d dials / %d sessions (per-round %v)", name, res.Dials, res.Sessions, res.DialsByRound)
		})
	}
}

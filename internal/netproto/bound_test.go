package netproto

import (
	"strings"
	"testing"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

// writeHostileStrata appends a strata estimator for seed whose levels 31
// and 30 each peel 40 keys while level 29 holds 2,000 and cannot peel.
// Against a small honest set it estimates 80·2³⁰ differences, and a
// responder that sized its IBLT from that would ask for hundreds of
// billions of cells.
func writeHostileStrata(e *transport.Encoder, seed uint64) {
	src := rng.New(seed)
	hashx.NewMixer(src) // the stratum-assignment hash
	keys := rng.New(seed ^ 0x5eed)
	e.WriteUvarint(iblt.StrataCells)
	for lvl := range iblt.StrataLevels {
		t := iblt.New(iblt.StrataCells, 3, src.Uint64())
		for range map[int]int{31: 40, 30: 40, 29: 2000}[lvl] {
			t.Insert(keys.Uint64())
		}
		t.Encode(e)
	}
}

// TestRespondersRefuseHostileStrata: a strata crosses the wire only in
// a mismatched probe reply. A hostile one makes the prober's estimate
// far exceed iblt.MaxDiff; the repair that follows clamps it into the
// hint range, and the repair responder refuses the first table's bound
// with the limit error before it allocates the table.
func TestRespondersRefuseHostileStrata(t *testing.T) {
	const seed = 9
	space := metric.HammingCube(64)
	local := newSyncSet(t, space, liveRandomSet(space, 8, 3), seed)
	peer := newSyncSet(t, space, liveRandomSet(space, 8, 4), seed)
	repairFactory, err := NewRepairResponderFactory(peer)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("repair", func(t *testing.T) {
		prober, responder := transport.NewPipe()
		reply := transport.NewEncoder()
		encodeSummary(reply, ProbeSummary{Distinct: 8})
		writeHostileStrata(reply, seed)
		if err := responder.Send(reply); err != nil {
			t.Fatal(err)
		}
		probe := newProbe(t, local)
		if err := probe.Run(prober); err != nil {
			t.Fatal(err)
		}
		if probe.Estimate <= iblt.MaxDiff {
			t.Fatalf("hostile strata estimated %d, want above %d", probe.Estimate, iblt.MaxDiff)
		}
		init, err := NewRepairInitiator(local, probe.Estimate)
		if err != nil {
			t.Fatal(err)
		}
		alice, bob := transport.NewPipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			init.Run(alice) //nolint:errcheck // fails once the responder hangs up
		}()
		err = repairFactory().Run(bob)
		bob.Close()
		<-done
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("err = %v, want the difference limit", err)
		}
	})
}

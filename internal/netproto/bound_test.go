package netproto

import (
	"strings"
	"testing"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/live"
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

// TestRespondersRefuseHostileStrata feeds the repair responder a
// strata estimate far above iblt.MaxDiff: it must fail with the limit
// error before it allocates a table.
func TestRespondersRefuseHostileStrata(t *testing.T) {
	const seed = 9
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: seed}}, liveRandomSet(metric.HammingCube(64), 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	repairFactory, err := NewRepairResponderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		handler Handler
	}{
		{"repair", repairFactory()},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := transport.NewEncoder()
			e.WriteUvarint(0) // no hint: the strata follows
			writeHostileStrata(e, seed)
			peer, conn := transport.NewPipe()
			if err := peer.Send(e); err != nil {
				t.Fatal(err)
			}
			err := c.handler.Run(conn)
			if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Fatalf("err = %v, want the difference limit", err)
			}
		})
	}
}

package netproto

import (
	"runtime"
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

// TestRespondersRefuseHostileStrata feeds the live sync responder and
// the repair responder a strata estimate far above iblt.MaxDiff: each
// must fail with the limit error before it allocates a table.
func TestRespondersRefuseHostileStrata(t *testing.T) {
	const seed = 9
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: seed}}, liveRandomSet(metric.HammingCube(64), 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	syncFactory, err := NewLiveSyncResponderFactory(SyncParams{Seed: seed}, ls)
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
		hint    bool // repair's first frame leads with a zero hint
	}{
		{"sync", syncFactory(), false},
		{"repair", repairFactory(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := transport.NewEncoder()
			if c.hint {
				e.WriteUvarint(0)
			}
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

// TestSyncResponderRefusesAckBomb answers a sync responder's first
// table with a 6-byte ack: true, then an ID count of 2²⁵−1 and no IDs.
// The responder must fail on the count the frame cannot back, before
// it allocates the list (256 MiB at 8 bytes per ID), whether it serves
// frozen IDs or a live set.
func TestSyncResponderRefusesAckBomb(t *testing.T) {
	const seed = 9
	pts := liveRandomSet(metric.HammingCube(64), 8, 3)
	ids := live.IDsOf(seed, pts)
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: seed}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	liveFactory, err := NewLiveSyncResponderFactory(SyncParams{Seed: seed}, ls)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		handler Handler
	}{
		{"frozen", NewSyncResponder(SyncParams{Seed: seed}, ids)},
		{"live", liveFactory()},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer, conn := transport.NewPipe()
			opening := transport.NewEncoder()
			iblt.NewStrataFromKeys(iblt.StrataCells, seed, ids).Encode(opening)
			ack := transport.NewEncoder()
			ack.WriteBool(true)
			ack.WriteUvarint(1<<25 - 1)
			if err := peer.Send(opening); err != nil {
				t.Fatal(err)
			}
			if err := peer.Send(ack); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.handler.Run(conn)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile ack accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("responder allocated %d bytes before refusing the ack (err %v)", grew, err)
			}
		})
	}
}

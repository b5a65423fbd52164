package session

import (
	"sync"
	"testing"

	"repro/internal/emd"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/rng"
)

// TestServerLiveChurn is the end-to-end check for live serving: a
// server whose EMD state lives in a live.Set, mutated concurrently
// while peers sync over real TCP sockets. Returning peers (persistent
// caches) must end consistent with the server — every session's
// fingerprint check passes — and new sessions must always see a
// consistent epoch snapshot, churn racing or not. Run with -race in CI.
func TestServerLiveChurn(t *testing.T) {
	space := metric.HammingCube(64)
	p := emd.Params{Space: space, N: 32, K: 3, D1: 2, D2: 64, Seed: 7}
	src := rng.New(61)
	randPt := func() metric.Point {
		pt := make(metric.Point, space.Dim)
		for i := range pt {
			pt[i] = int32(src.Uint64() % 2)
		}
		return pt
	}
	var sa metric.PointSet
	for i := 0; i < p.N; i++ {
		sa = append(sa, randPt())
	}
	ls, err := live.NewSet(live.Config{EMD: &p}, sa)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := netproto.NewLiveEMDSenderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{MaxSessions: 8, Resolver: netproto.Handlers(factory)})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := Dialer{Addr: l.Addr().String()}

	sb := make(metric.PointSet, p.N)
	for i := range sb {
		sb[i] = randPt()
	}

	// Churner: replace points while clients sync. Mutation points are
	// pre-generated so the rng source is not shared across goroutines.
	churn := make(metric.PointSet, 24)
	for i := range churn {
		churn[i] = randPt()
	}
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i, pt := range churn {
			select {
			case <-stop:
				return
			default:
			}
			if err := ls.ApplyBatch([]live.Op{
				{Remove: true, Point: sa[i%len(sa)]},
				{Point: pt},
			}); err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
			sa[i%len(sa)] = pt
		}
	}()

	// Six returning peers, three sessions each on a persistent cache.
	const peers, rounds = 6, 3
	errs := make([]error, peers)
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cache := &netproto.EMDCache{}
			for r := 0; r < rounds; r++ {
				h := netproto.NewLiveEMDReceiver(p, sb, cache)
				if _, err := d.Do(h); err != nil {
					errs[i] = err
					return
				}
				if h.Epoch == 0 {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("peer %d: %v", i, err)
		}
	}
	srv.Close()
	if srv.Failed() != 0 {
		t.Errorf("%d failed sessions", srv.Failed())
	}
	if got := srv.Served(); got != peers*rounds {
		t.Errorf("served = %d, want %d", got, peers*rounds)
	}
}

// Benchmarks of the whole stack from the public package: one
// Algorithm 1 and one Theorem 4.2 run in-process, exact ID sync, live-set
// mutation, and live-emd delta sessions and full sessions over loopback
// TCP. They are developer tools and gate nothing: bench/ times the
// product end to end (bash bench/run.sh), and the one deterministic
// figure here, allocations per served session, is pinned by
// TestServedSessionAllocs. The paper's claims are asserted by the
// package tests, not measured here.
package robustsync

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/matching"
	"repro/internal/netproto"
	"repro/internal/session"
	"repro/internal/workload"
)

// BenchmarkProtocolEMDHamming measures one end-to-end Algorithm 1 run
// (n=64, k=4, d=128, informed bounds) without ground-truth scoring —
// the deployment-relevant cost.
func BenchmarkProtocolEMDHamming(b *testing.B) {
	space := HammingSpace(128)
	const n, k = 64, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 9)
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := DefaultEMDParams(space, n, k, uint64(i)+1)
		p.D1 = maxf(1, emdK/4)
		p.D2 = maxf(emdK*4, p.D1*2)
		if _, err := ReconcileEMD(p, inst.SA, inst.SB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolGapHamming measures one end-to-end Theorem 4.2 run
// (n=64, k=4, d=1024).
func BenchmarkProtocolGapHamming(b *testing.B) {
	space := HammingSpace(1024)
	inst, err := workload.NewGapInstance(space, 64, 4, 1, 8, 256, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := GapParams{Space: space, N: 70, R1: 8, R2: 256, Seed: uint64(i) + 1}
		if _, err := ReconcileGap(p, inst.SA, inst.SB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncIDs measures classic IBLT reconciliation of 10k-element
// sets differing in 100 IDs.
func BenchmarkSyncIDs(b *testing.B) {
	var bob, alice []uint64
	for i := uint64(0); i < 10000; i++ {
		bob = append(bob, i*2654435761)
		alice = append(alice, i*2654435761)
	}
	for i := uint64(0); i < 100; i++ {
		bob = append(bob, (1<<40)+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob, _, err := SyncIDs(bob, alice, 128, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ob) != 100 {
			b.Fatalf("recovered %d", len(ob))
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkLiveSetMutate measures one live point replacement (remove +
// add): two MLSH key-vector evaluations plus O(q·levels) RIBLT cell
// updates — the incremental cost that replaces a full O(n·s) sketch
// rebuild per change.
func BenchmarkLiveSetMutate(b *testing.B) {
	space := HammingSpace(128)
	const n, k = 64, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 9)
	params := DefaultEMDParams(space, n, k, 77)
	params.D1, params.D2 = 4, 256
	ls, err := NewLiveSet(LiveConfig{EMD: &params}, inst.SA)
	if err != nil {
		b.Fatal(err)
	}
	pts := inst.SA.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		old := pts[j]
		fresh := old.Clone()
		fresh[i%len(fresh)] ^= 1
		if err := ls.ApplyBatch([]LiveOp{{Remove: true, Point: old}, {Point: fresh}}); err != nil {
			b.Fatal(err)
		}
		pts[j] = fresh
	}
}

// BenchmarkLiveDeltaSession measures a returning peer's live-emd
// session over loopback TCP — announce epoch, receive churned cells,
// patch, reconcile — against churn of one point replacement per
// session. Compare with BenchmarkServerThroughput's full transfers.
func BenchmarkLiveDeltaSession(b *testing.B) {
	space := HammingSpace(128)
	const n, k = 64, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 9)
	params := DefaultEMDParams(space, n, k, 77)
	params.D1, params.D2 = 4, 256
	ls, err := NewLiveSet(LiveConfig{EMD: &params}, inst.SA)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := NewLiveEMDSenderFactory(ls)
	if err != nil {
		b.Fatal(err)
	}
	srv := session.NewServer(session.Config{MaxSessions: 4, Resolver: netproto.Handlers(factory)})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	d := session.Dialer{Addr: l.Addr().String()}
	cache := &EMDSketchCache{}
	// Warm the cache with the initial full transfer.
	if _, err := d.Do(NewLiveEMDReceiver(params, inst.SB, cache)); err != nil {
		b.Fatal(err)
	}
	pts := inst.SA.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		fresh := pts[j].Clone()
		fresh[i%len(fresh)] ^= 1
		if err := ls.ApplyBatch([]LiveOp{{Remove: true, Point: pts[j]}, {Point: fresh}}); err != nil {
			b.Fatal(err)
		}
		pts[j] = fresh
		h := NewLiveEMDReceiver(params, inst.SB, cache)
		if _, err := d.Do(h); err != nil {
			b.Fatal(err)
		}
		if !h.UsedDelta {
			b.Fatal("expected delta path after warm-up")
		}
	}
}

// serveEMD starts a loopback session server for BenchmarkServerThroughput's
// workload — Alice serves full EMD reconciliations (n=64, k=4, d=128,
// informed bounds) — and returns a dialer for it and Bob's receiver
// constructor. The server closes with the test.
func serveEMD(tb testing.TB, maxSessions int) (*session.Server, session.Dialer, func() netproto.Handler) {
	tb.Helper()
	space := HammingSpace(128)
	const n, k = 64, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 9)
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	params := DefaultEMDParams(space, n, k, 77)
	params.D1 = maxf(1, emdK/4)
	params.D2 = maxf(emdK*4, params.D1*2)
	emdFactory, err := netproto.NewEMDSenderFactory(params, inst.SA)
	if err != nil {
		tb.Fatal(err)
	}
	srv := session.NewServer(session.Config{MaxSessions: maxSessions, Resolver: netproto.Handlers(emdFactory)})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	receiver := func() netproto.Handler { return netproto.NewEMDReceiver(params, inst.SB) }
	return srv, session.Dialer{Addr: l.Addr().String()}, receiver
}

// BenchmarkServerThroughput measures the session engine end to end:
// sessions/sec and MB/s of a reconciled-style server completing full
// EMD reconciliations over loopback TCP at 1, 4 and 16 concurrent
// peers. Each op is one complete session (dial, header negotiation,
// protocol, teardown).
func BenchmarkServerThroughput(b *testing.B) {
	for _, peers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			srv, d, receiver := serveEMD(b, 2*peers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for p := 0; p < peers; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := d.Do(receiver()); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			// Server-side accounting can trail the clients' last read;
			// Close waits for every session before Stats is read.
			srv.Close()
			elapsed := b.Elapsed().Seconds()
			sessions := float64(b.N * peers)
			if elapsed > 0 {
				b.ReportMetric(sessions/elapsed, "sessions/sec")
				total, _ := srv.Stats()
				b.ReportMetric(float64(total.TotalBytes())/1e6/elapsed, "MB/s")
			}
		})
	}
}

// TestServedSessionAllocs pins the allocation cost of one served
// session: BenchmarkServerThroughput's peers=1 op, client and server
// sides together, counted until the server has torn the session down.
// The count is exact at a given build (149 plain, 159 under -race, with
// go1.24); the budget is that plus 10 %, so a change that adds a
// carrier, a goroutine or a buffer per session fails here.
func TestServedSessionAllocs(t *testing.T) {
	const budget = 164
	srv, d, receiver := serveEMD(t, 2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Do(receiver()); err != nil {
			t.Fatal(err)
		}
		srv.Quiesce()
	})
	t.Logf("%.1f allocations per served session (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("over the budget of %d", budget)
	}
}

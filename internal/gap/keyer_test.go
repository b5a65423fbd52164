package gap

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestKeyerPayloadsMatchProtocol: Payload equals the key the protocol
// computes internally for the element in a batch.
func TestKeyerPayloadsMatchProtocol(t *testing.T) {
	p := Params{Space: metric.HammingCube(64), N: 16, R1: 2, R2: 16, Seed: 4}
	ky, err := NewKeyer(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(8)
	var pts metric.PointSet
	for i := 0; i < 10; i++ {
		pt := make(metric.Point, 64)
		for j := range pt {
			pt[j] = int32(src.Uint64() % 2)
		}
		pts = append(pts, pt)
	}
	keys := pl.keyBatch(pts)
	for i, pt := range pts {
		want := encodeKey(keys[i*pl.h:(i+1)*pl.h], pl.ky.bits)
		if !bytes.Equal(ky.Payload(pt), want) {
			t.Fatalf("point %d: single payload differs from protocol key", i)
		}
	}
}

// TestKeyerRunAliceMatchesRunAlice: a session served through a keyer
// is indistinguishable from one that derives its own plan.
func TestKeyerRunAliceMatchesRunAlice(t *testing.T) {
	p := Params{Space: metric.HammingCube(128), N: 20, R1: 4, R2: 48, Seed: 11}
	inst := func() (metric.PointSet, metric.PointSet) {
		src := rng.New(33)
		var sa, sb metric.PointSet
		for i := 0; i < 16; i++ {
			pt := make(metric.Point, 128)
			for j := range pt {
				pt[j] = int32(src.Uint64() % 2)
			}
			sa = append(sa, pt)
			sb = append(sb, pt.Clone())
		}
		// One far Alice-only point.
		far := make(metric.Point, 128)
		for j := range far {
			far[j] = 1
		}
		sa = append(sa, far)
		return sa, sb
	}

	run := func(alice func(conn transport.Conn, sa metric.PointSet) (AliceReport, error)) (AliceReport, Result) {
		sa, sb := inst()
		aConn, bConn := transport.NewPipe()
		var (
			wg   sync.WaitGroup
			bRes Result
			bErr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			bRes, bErr = RunBob(p, bConn, sb)
			bConn.Close()
		}()
		aRep, aErr := alice(aConn, sa)
		aConn.Close()
		wg.Wait()
		if aErr != nil || bErr != nil {
			t.Fatalf("alice err %v, bob err %v", aErr, bErr)
		}
		return aRep, bRes
	}

	fresh, freshBob := run(func(conn transport.Conn, sa metric.PointSet) (AliceReport, error) {
		return RunAlice(p, conn, sa)
	})
	ky, err := NewKeyer(p)
	if err != nil {
		t.Fatal(err)
	}
	cached, cachedBob := run(func(conn transport.Conn, sa metric.PointSet) (AliceReport, error) {
		return ky.RunAlice(conn, sa)
	})
	if fresh.FarKeys != cached.FarKeys || len(fresh.TA) != len(cached.TA) {
		t.Fatalf("keyer serving diverges: far %d/%d, |TA| %d/%d",
			fresh.FarKeys, cached.FarKeys, len(fresh.TA), len(cached.TA))
	}
	if len(freshBob.SPrime) != len(cachedBob.SPrime) {
		t.Fatalf("bob outcome diverges: |S'| %d/%d", len(freshBob.SPrime), len(cachedBob.SPrime))
	}
}

// TestKeyerRunAliceValidates: a set larger than the params' N is
// rejected before any message is sent.
func TestKeyerRunAliceValidates(t *testing.T) {
	p := Params{Space: metric.HammingCube(32), N: 1, R1: 2, R2: 12, Seed: 2}
	ky, err := NewKeyer(p)
	if err != nil {
		t.Fatal(err)
	}
	aConn, _ := transport.NewPipe()
	sa := metric.PointSet{make(metric.Point, 32), make(metric.Point, 32)}
	if _, err := ky.RunAlice(aConn, sa); err == nil {
		t.Fatal("|SA| > N accepted")
	}
	if rounds := aConn.Stats().Rounds; rounds != 0 {
		t.Fatalf("a rejected session sent %d messages", rounds)
	}
}

// TestKeyerPayloadAllocs: a live set's per-mutation key costs one
// scratch array and the payload itself.
func TestKeyerPayloadAllocs(t *testing.T) {
	p := Params{Space: metric.HammingCube(1024), N: 512, R1: 8, R2: 256, Seed: 5}
	ky, err := NewKeyer(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	pt := make(metric.Point, 1024)
	for j := range pt {
		pt[j] = int32(src.Uint64() % 2)
	}
	if n := testing.AllocsPerRun(50, func() { ky.Payload(pt) }); n > 2 {
		t.Fatalf("Keyer.Payload allocates %v times, want <= 2", n)
	}
}

// TestNewPlanAllocs: a plan at the benchmark's gap-oneshot shape (h·m =
// 180 coordinate samples) stores its draws flat, so building one costs
// a handful of allocations, not one per draw.
func TestNewPlanAllocs(t *testing.T) {
	p := Params{Space: metric.HammingCube(1024), N: 512, R1: 8, R2: 256, Seed: 5}
	n := testing.AllocsPerRun(20, func() {
		if _, err := newPlan(p); err != nil {
			t.Fatal(err)
		}
	})
	if n > 16 {
		t.Fatalf("newPlan allocates %v times, want <= 16", n)
	}
}

// TestEntryTableMatchesGeneral: keys read from the entry tables equal
// the general path's (kernel values hashed per entry) on Hamming spaces
// with Δ = 1 at m = 1, 3 and 8 and with Δ = 3 at m = 2, and a point with
// one sampled coordinate outside [0, Δ] (−1, Δ+1 or 2³⁰, in the first
// or the last entry) takes the general path and gets its key. Past
// (Δ+1)^m = 256 the keyer keeps the general path alone.
func TestEntryTableMatchesGeneral(t *testing.T) {
	const d, h = 97, 21
	for _, c := range []struct {
		delta int32
		m     int
		table bool
	}{{1, 1, true}, {1, 3, true}, {1, 8, true}, {3, 2, true}, {1, 9, false}, {3, 5, false}} {
		space := metric.Grid(c.delta, d, metric.Hamming)
		src := rng.New(uint64(c.m)*10 + uint64(c.delta))
		ky := newKeyer(lsh.NewCoordSampling(space, d), c.delta, h, c.m, EntryBits(512), src)
		if (ky.table != nil) != c.table {
			t.Fatalf("Δ=%d m=%d: entry tables built %v, want %v", c.delta, c.m, ky.table != nil, c.table)
		}
		general := *ky
		general.table = nil

		pts := workload.RandomSet(space, 40, src)
		for _, bad := range []int32{-1, c.delta + 1, 1 << 30} {
			for _, draw := range []int{0, h*c.m - 1} {
				pt := workload.RandomPoint(space, src)
				pt[ky.kern.Coords()[draw]] = bad
				pts = append(pts, pt)
			}
		}
		got, want := make([]uint64, h), make([]uint64, h)
		batch := make([]uint64, c.m)
		for i, pt := range pts {
			if ky.table != nil {
				inRange := space.Contains(pt)
				if ok := ky.tableKeyInto(got, pt); ok != inRange {
					t.Fatalf("Δ=%d m=%d point %d: table path reports %v, coordinates in range %v",
						c.delta, c.m, i, ok, inRange)
				}
			}
			ky.keyInto(got, batch, pt)
			general.keyInto(want, batch, pt)
			if !slices.Equal(got, want) {
				t.Fatalf("Δ=%d m=%d point %d: table key %v, general key %v", c.delta, c.m, i, got, want)
			}
		}
	}
}

// BenchmarkKeyBatch keys a set at the gap-oneshot benchmark's shape:
// d = 1024, N = n = 512, r1 = 8, r2 = 256 (h = 60, m = 3).
func BenchmarkKeyBatch(b *testing.B) {
	space := metric.HammingCube(1024)
	pl, err := newPlan(Params{Space: space, N: 512, R1: 8, R2: 256, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	pts := workload.RandomSet(space, 512, rng.New(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.keyBatch(pts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}

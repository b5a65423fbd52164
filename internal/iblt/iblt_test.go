package iblt

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/transport"
)

func keys(vals ...uint64) []uint64 { return vals }

func sortedCopy(xs []uint64) []uint64 {
	c := append([]uint64(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func equalSets(a, b []uint64) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertDeleteCancel(t *testing.T) {
	tb := New(64, 3, 1)
	tb.Insert(42)
	tb.Delete(42)
	add, rem, err := tb.Decode()
	if err != nil || len(add) != 0 || len(rem) != 0 {
		t.Fatalf("decode after cancel: add=%v rem=%v err=%v", add, rem, err)
	}
}

func TestDecodeSmallDifference(t *testing.T) {
	tb := New(64, 3, 2)
	ins := keys(1, 2, 3, 4, 5)
	del := keys(100, 200)
	for _, k := range ins {
		tb.Insert(k)
	}
	for _, k := range del {
		tb.Delete(k)
	}
	add, rem, err := tb.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(add, ins) {
		t.Errorf("added = %v, want %v", add, ins)
	}
	if !equalSets(rem, del) {
		t.Errorf("removed = %v, want %v", rem, del)
	}
}

func TestDecodeConsumesTable(t *testing.T) {
	tb := New(64, 3, 3)
	tb.Insert(7)
	if _, _, err := tb.Decode(); err != nil {
		t.Fatal(err)
	}
	add, rem, err := tb.Decode()
	if err != nil || len(add)+len(rem) != 0 {
		t.Errorf("second decode: add=%v rem=%v err=%v", add, rem, err)
	}
}

func TestSubtractRecoversDifference(t *testing.T) {
	const seed = 7
	bob := New(256, 3, seed)
	alice := New(256, 3, seed)
	// Large shared portion, small difference.
	for i := uint64(0); i < 10000; i++ {
		bob.Insert(i)
		alice.Insert(i)
	}
	onlyBob := keys(20001, 20002, 20003)
	onlyAlice := keys(30001, 30002)
	for _, k := range onlyBob {
		bob.Insert(k)
	}
	for _, k := range onlyAlice {
		alice.Insert(k)
	}
	if err := bob.Subtract(alice); err != nil {
		t.Fatal(err)
	}
	add, rem, err := bob.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(add, onlyBob) || !equalSets(rem, onlyAlice) {
		t.Errorf("diff = +%v −%v", add, rem)
	}
}

func TestSubtractGeometryMismatch(t *testing.T) {
	a := New(64, 3, 1)
	b := New(128, 3, 1)
	if err := a.Subtract(b); err == nil {
		t.Error("mismatched subtract succeeded")
	}
	c := New(64, 4, 1)
	if err := a.Subtract(c); err == nil {
		t.Error("mismatched q subtract succeeded")
	}
}

func TestOverloadReportsPartial(t *testing.T) {
	tb := New(12, 3, 5)
	for i := uint64(0); i < 100; i++ {
		tb.Insert(i)
	}
	_, _, err := tb.Decode()
	if err != ErrPartial {
		t.Errorf("overloaded decode err = %v, want ErrPartial", err)
	}
}

// TestTheorem26Threshold reproduces the qualitative content of Theorem
// 2.6: a table with m cells reliably decodes c·m keys for a small enough
// constant c, and reliably fails well above the peeling threshold c*_q.
// Load 0.8 sits between the q = 4 and q = 3 knees (c*_4 ≈ 0.772 <
// 0.8 < c*_3 ≈ 0.818), so there the two hash counts must part ways.
func TestTheorem26Threshold(t *testing.T) {
	const m = 600
	trials := 40
	succ := func(q int, load float64) int {
		ok := 0
		src := rng.New(uint64(load * 1e6))
		for trial := 0; trial < trials; trial++ {
			tb := New(m, q, src.Uint64())
			n := int(load * float64(m))
			for i := 0; i < n; i++ {
				tb.Insert(src.Uint64())
			}
			if _, _, err := tb.Decode(); err == nil {
				ok++
			}
		}
		return ok
	}
	if got := succ(3, 0.5); got != trials {
		t.Errorf("q=3 load 0.5: %d/%d decoded; want all", got, trials)
	}
	// Below both knees a small-m table still fails with probability
	// O(1/m) (a 2-core of a few cells), so allow one miss.
	for _, q := range []int{3, 4} {
		if got := succ(q, 0.7); got < trials-1 {
			t.Errorf("q=%d load 0.7: %d/%d decoded; want ~all", q, got, trials)
		}
	}
	// Finite m blurs the q=3 knee, so just below it a majority must
	// decode; above the q=4 knee essentially none may.
	if got := succ(3, 0.8); got < trials/2 {
		t.Errorf("q=3 load 0.8: %d/%d decoded; want most (c*_3 ≈ 0.818)", got, trials)
	}
	if got := succ(4, 0.8); got > 1 {
		t.Errorf("q=4 load 0.8: %d/%d decoded; want ~0 (c*_4 ≈ 0.772)", got, trials)
	}
	// Load 1.2 is above both knees and must essentially always fail.
	if got := succ(3, 1.2); got > 1 {
		t.Errorf("q=3 load 1.2: %d/%d decoded; want ~0", got, trials)
	}
}

func TestDiffHelper(t *testing.T) {
	shared := make([]uint64, 5000)
	src := rng.New(11)
	for i := range shared {
		shared[i] = src.Uint64()
	}
	bob := append(append([]uint64(nil), shared...), 1, 2, 3)
	alice := append(append([]uint64(nil), shared...), 9, 8)
	ob, oa, err := Diff(bob, alice, 8, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(ob, keys(1, 2, 3)) || !equalSets(oa, keys(9, 8)) {
		t.Errorf("Diff = +%v −%v", ob, oa)
	}
}

func TestDiffPropertyRandomSets(t *testing.T) {
	prop := func(seed uint64, nb, na uint8) bool {
		src := rng.New(seed)
		nBob := int(nb%20) + 1
		nAlice := int(na%20) + 1
		bobOnly := map[uint64]bool{}
		aliceOnly := map[uint64]bool{}
		var bob, alice []uint64
		for i := 0; i < 300; i++ { // shared
			k := src.Uint64()
			bob = append(bob, k)
			alice = append(alice, k)
		}
		for i := 0; i < nBob; i++ {
			k := src.Uint64() | 1<<63
			bobOnly[k] = true
			bob = append(bob, k)
		}
		for i := 0; i < nAlice; i++ {
			k := src.Uint64() &^ (1 << 63)
			aliceOnly[k] = true
			alice = append(alice, k)
		}
		ob, oa, err := DiffAdaptive(bob, alice, nBob+nAlice, 3, seed^0xabc, 4)
		if err != nil {
			return false
		}
		if len(ob) != len(bobOnly) || len(oa) != len(aliceOnly) {
			return false
		}
		for _, k := range ob {
			if !bobOnly[k] {
				return false
			}
		}
		for _, k := range oa {
			if !aliceOnly[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	const seed = 99
	tb := New(96, 4, seed)
	for i := uint64(0); i < 20; i++ {
		tb.Insert(i * 1234567)
	}
	e := transport.NewEncoder()
	tb.Encode(e)
	data, _ := e.Pack()
	d := transport.NewDecoder(data)
	got, err := DecodeFrom(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded table must behave identically: subtracting the
	// original leaves it empty.
	if err := got.Subtract(tb); err != nil {
		t.Fatal(err)
	}
	add, rem, err := got.Decode()
	if err != nil || len(add)+len(rem) != 0 {
		t.Errorf("round-tripped table differs: +%v −%v err=%v", add, rem, err)
	}
}

func TestDecodeFromRejectsGarbage(t *testing.T) {
	e := transport.NewEncoder()
	e.WriteUvarint(1) // q = 1: implausible
	e.WriteUvarint(10)
	data, _ := e.Pack()
	d := transport.NewDecoder(data)
	if _, err := DecodeFrom(d, 1); err == nil {
		t.Error("garbage header accepted")
	}
}

func TestCellsForDiff(t *testing.T) {
	if CellsForDiff(0, 3) < 3 {
		t.Error("zero diff undersized")
	}
	if CellsForDiff(1000, 3) < 1500 {
		t.Error("large diff undersized")
	}
}

func TestNewPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q=1 accepted")
		}
	}()
	New(64, 1, 1)
}

func TestStrataEstimate(t *testing.T) {
	for _, diff := range []int{0, 4, 40, 400, 4000} {
		const seed = 5
		src := rng.New(uint64(diff) + 1)
		keys := make([]uint64, 20000+diff)
		for i := range keys {
			keys[i] = src.Uint64()
		}
		sa := NewStrataFromKeys(80, seed, keys)
		sb := NewStrataFromKeys(80, seed, keys[:20000])
		got, err := sa.Estimate(sb)
		if err != nil {
			t.Fatal(err)
		}
		if diff == 0 {
			if got != 0 {
				t.Errorf("diff 0: estimate %d", got)
			}
			continue
		}
		// [10] shows the estimate concentrates within a constant factor;
		// accept [diff/3, 3·diff].
		if got < diff/3 || got > diff*3 {
			t.Errorf("diff %d: estimate %d outside [d/3, 3d]", diff, got)
		}
	}
}

func TestStrataEncodeRoundTrip(t *testing.T) {
	const seed = 17
	src := rng.New(3)
	ks := make([]uint64, 500)
	for i := range ks {
		ks[i] = src.Uint64()
	}
	s := NewStrataFromKeys(40, seed, ks)
	e := transport.NewEncoder()
	s.Encode(e)
	data, _ := e.Pack()
	d := transport.NewDecoder(data)
	got, err := DecodeStrata(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Same contents → estimate of difference against original is 0.
	est, err := got.Estimate(s)
	if err != nil || est != 0 {
		t.Errorf("round-trip estimate = %d err=%v", est, err)
	}
	// And against an estimator missing 100 keys, it is ~100.
	s2 := NewStrataFromKeys(40, seed, ks[:400])
	est, err = got.Estimate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if est < 30 || est > 300 {
		t.Errorf("estimate vs truncated = %d, want ~100", est)
	}
}

func TestStrataGeometryMismatch(t *testing.T) {
	a := NewStrataFromKeys(40, 1, nil)
	b := NewStrataFromKeys(80, 1, nil)
	if _, err := a.Estimate(b); err == nil {
		t.Error("mismatched strata estimate succeeded")
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New(1<<16, 3, 1)
	for i := 0; i < b.N; i++ {
		tb.Insert(uint64(i))
	}
}

func BenchmarkDecode1000(b *testing.B) {
	// Theorem 2.6 allows decode failure with probability O(1/poly(m)),
	// so across many benchmark iterations a rare stall is expected;
	// only an implausible failure *rate* indicates a bug.
	failures := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := New(2048, 3, uint64(i))
		for k := uint64(0); k < 1000; k++ {
			tb.Insert(k ^ uint64(i)<<20)
		}
		b.StartTimer()
		if _, _, err := tb.Decode(); err != nil {
			failures++
		}
	}
	if failures > b.N/20+1 {
		b.Fatalf("%d/%d decodes failed", failures, b.N)
	}
}

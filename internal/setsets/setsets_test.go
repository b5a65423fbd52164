package setsets

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/rng"
	"repro/internal/transport"
)

func mkChild(src *rng.Source, size int) Child {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(src.Uint64())
	}
	return Child{Payload: p}
}

func sortedPayloads(cs []Child) [][]byte {
	out := make([][]byte, len(cs))
	for i, c := range cs {
		out[i] = c.Payload
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func equalChildSets(a, b []Child) bool {
	pa, pb := sortedPayloads(a), sortedPayloads(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !bytes.Equal(pa[i], pb[i]) {
			return false
		}
	}
	return true
}

func TestIdenticalMultisets(t *testing.T) {
	src := rng.New(1)
	const size = 24
	var shared []Child
	for i := 0; i < 500; i++ {
		shared = append(shared, mkChild(src, size))
	}
	res, _, err := Reconcile(Params{PayloadBytes: size, Seed: 7}, shared, shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BobOnly)+len(res.AliceOnly) != 0 {
		t.Fatalf("difference on identical multisets: %d/%d", len(res.BobOnly), len(res.AliceOnly))
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

func TestSmallDifference(t *testing.T) {
	src := rng.New(2)
	const size = 16
	var alice, bob []Child
	for i := 0; i < 400; i++ {
		c := mkChild(src, size)
		alice = append(alice, c)
		bob = append(bob, c)
	}
	var bobOnly, aliceOnly []Child
	for i := 0; i < 5; i++ {
		c := mkChild(src, size)
		bobOnly = append(bobOnly, c)
		bob = append(bob, c)
	}
	for i := 0; i < 3; i++ {
		c := mkChild(src, size)
		aliceOnly = append(aliceOnly, c)
		alice = append(alice, c)
	}
	res, _, err := Reconcile(Params{PayloadBytes: size, Seed: 9}, alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !equalChildSets(res.BobOnly, bobOnly) {
		t.Errorf("BobOnly mismatch: got %d children", len(res.BobOnly))
	}
	if !equalChildSets(res.AliceOnly, aliceOnly) {
		t.Errorf("AliceOnly mismatch: got %d children", len(res.AliceOnly))
	}
}

func TestDuplicateChildrenMultiplicity(t *testing.T) {
	// Bob holds the same child three times, Alice once: Alice must learn
	// two extra copies.
	src := rng.New(3)
	const size = 8
	c := mkChild(src, size)
	filler := make([]Child, 0, 100)
	for i := 0; i < 100; i++ {
		filler = append(filler, mkChild(src, size))
	}
	alice := append(append([]Child{}, filler...), c)
	bob := append(append([]Child{}, filler...), c, c, c)
	res, _, err := Reconcile(Params{PayloadBytes: size, Seed: 11}, alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BobOnly) != 2 {
		t.Fatalf("BobOnly = %d children, want 2 duplicates", len(res.BobOnly))
	}
	for _, got := range res.BobOnly {
		if !bytes.Equal(got.Payload, c.Payload) {
			t.Errorf("recovered wrong payload")
		}
	}
	if len(res.AliceOnly) != 0 {
		t.Errorf("AliceOnly = %d, want 0", len(res.AliceOnly))
	}
}

// TestCommunicationScalesWithDifference is the Theorem E.1 shape check:
// doubling the shared portion must not grow communication, while
// doubling the difference roughly doubles it.
func TestCommunicationScalesWithDifference(t *testing.T) {
	const size = 16
	run := func(nShared, nDiff int, seed uint64) int64 {
		src := rng.New(seed)
		var alice, bob []Child
		for i := 0; i < nShared; i++ {
			c := mkChild(src, size)
			alice = append(alice, c)
			bob = append(bob, c)
		}
		for i := 0; i < nDiff; i++ {
			bob = append(bob, mkChild(src, size))
		}
		_, st, err := Reconcile(Params{PayloadBytes: size, Seed: seed}, alice, bob)
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalBits()
	}
	smallShared := run(200, 10, 21)
	bigShared := run(2000, 10, 22)
	if bigShared > smallShared*3/2 {
		t.Errorf("10x shared data grew comm from %d to %d bits", smallShared, bigShared)
	}
	// The strata sketch is a fixed cost; the difference-proportional
	// component is the marginal cost over a zero-difference run.
	base := run(500, 0, 23)
	smallDiff := run(500, 8, 23) - base
	bigDiff := run(500, 64, 24) - base
	if bigDiff < smallDiff*3 {
		t.Errorf("8x difference grew marginal comm only from %d to %d bits", smallDiff, bigDiff)
	}
}

func TestEmptySides(t *testing.T) {
	src := rng.New(5)
	const size = 8
	bob := []Child{mkChild(src, size), mkChild(src, size)}
	res, _, err := Reconcile(Params{PayloadBytes: size, Seed: 31}, nil, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !equalChildSets(res.BobOnly, bob) {
		t.Error("empty Alice did not receive all of Bob's children")
	}
	res, _, err = Reconcile(Params{PayloadBytes: size, Seed: 33}, bob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalChildSets(res.AliceOnly, bob) {
		t.Error("empty Bob: Alice's children not classified AliceOnly")
	}
}

func TestPayloadSizeMismatch(t *testing.T) {
	_, _, err := Reconcile(Params{PayloadBytes: 4, Seed: 1},
		[]Child{{Payload: []byte{1, 2, 3}}}, nil)
	if err == nil {
		t.Error("mismatched payload size accepted")
	}
}

// TestAliceRejectsPeerValueWidth: a peer table whose values are not
// PayloadBytes wide is a malformed frame, so Alice returns an error
// instead of panicking when she deletes her children from it.
func TestAliceRejectsPeerValueWidth(t *testing.T) {
	p := Params{PayloadBytes: 4, Seed: 9}
	aConn, bConn := transport.NewPipe()
	go func() {
		defer bConn.Close()
		if _, err := bConn.Recv(); err != nil { // Alice's strata
			return
		}
		e := transport.NewEncoder()
		e.WriteUvarint(0) // attempt tag
		iblt.NewKV(2, 2, 1, 1).Encode(e)
		bConn.Send(e)
	}()
	_, err := RunAlice(p, aConn, []Child{{Payload: []byte{1, 2, 3, 4}}})
	aConn.Close()
	if err == nil {
		t.Fatal("peer table with 1-byte values accepted for 4-byte children")
	}
}

func TestRetryOnUnderestimate(t *testing.T) {
	// Force a gross underestimate by shrinking the strata sketch and
	// safety factor; the retry rounds must still converge.
	src := rng.New(6)
	const size = 12
	var alice, bob []Child
	for i := 0; i < 100; i++ {
		c := mkChild(src, size)
		alice = append(alice, c)
		bob = append(bob, c)
	}
	var want []Child
	for i := 0; i < 120; i++ {
		c := mkChild(src, size)
		want = append(want, c)
		bob = append(bob, c)
	}
	res, _, err := Reconcile(Params{
		PayloadBytes: size, Seed: 41, StrataCells: 8, SafetyFactor: 0.25,
	}, alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !equalChildSets(res.BobOnly, want) {
		t.Errorf("after retries recovered %d/%d children", len(res.BobOnly), len(want))
	}
}

// TestRunBobRefusesHostileStrata feeds Bob a strata estimator whose
// levels 31 and 30 each peel 40 keys while level 29 holds 2,000 and
// cannot peel: an estimate of 80·2³⁰ differences. Bob must fail with the
// limit error before he allocates a table.
func TestRunBobRefusesHostileStrata(t *testing.T) {
	p := Params{PayloadBytes: 8, Seed: 5}
	p.ApplyDefaults()
	src := rng.New(deriveShared(p).strataSeed)
	hashx.NewMixer(src) // the stratum-assignment hash
	keys := rng.New(77)
	e := transport.NewEncoder()
	e.WriteUvarint(iblt.StrataCells)
	for lvl := range iblt.StrataLevels {
		tbl := iblt.New(iblt.StrataCells, 3, src.Uint64())
		for range map[int]int{31: 40, 30: 40, 29: 2000}[lvl] {
			tbl.Insert(keys.Uint64())
		}
		tbl.Encode(e)
	}
	alice, bob := transport.NewPipe()
	if err := alice.Send(e); err != nil {
		t.Fatal(err)
	}
	children := []Child{mkChild(rng.New(3), 8), mkChild(rng.New(4), 8)}
	err := RunBob(p, bob, children)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want the difference limit", err)
	}
}

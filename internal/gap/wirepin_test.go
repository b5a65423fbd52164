package gap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
)

// frameHasher is a transport.Conn that folds every frame it sends —
// exact bit count, then payload bytes — into a running SHA-256 before
// handing an identical frame to the wrapped conn.
type frameHasher struct {
	transport.Conn
	sum hash.Hash
}

func (c *frameHasher) Send(e *transport.Encoder) error {
	data, bits := e.Pack()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(bits))
	c.sum.Write(n[:])
	c.sum.Write(data)
	fwd := transport.NewEncoder()
	fwd.WriteBitString(data, bits)
	return c.Conn.Send(fwd)
}

// TestExchangeWirePinned pins the SHA-256 of every frame one
// RunAlice/RunBob exchange sends in each direction at a fixed seed, so
// a change to the keys, the IBLT/strata/KV cells or the bit codec that
// moves both parties identically still fails here. The values were
// captured once and must never change without a wire-version bump.
func TestExchangeWirePinned(t *testing.T) {
	const (
		d       = 128
		wantA2B = "6d478dbd4bc6754575d78ff8db263c811a4407743291722f60a6d524e529465e"
		wantB2A = "253b35336f309593ceda00f209e735d08ae486a83295338bf74eaec419fb1b16"
	)
	p := Params{Space: metric.HammingCube(d), N: 24, R1: 4, R2: 48, Seed: 0x91}
	src := rng.New(0x92)
	point := func() metric.Point {
		pt := make(metric.Point, d)
		for j := range pt {
			pt[j] = int32(src.Uint64() % 2)
		}
		return pt
	}
	var sa, sb metric.PointSet
	for i := 0; i < 16; i++ {
		pt := point()
		sa = append(sa, pt)
		near := pt.Clone()
		near[i] ^= 1
		sb = append(sb, near)
	}
	sa = append(sa, point(), point()) // far Alice-only points
	sb = append(sb, point())          // a far Bob-only point

	aPipe, bPipe := transport.NewPipe()
	alice := &frameHasher{Conn: aPipe, sum: sha256.New()}
	bob := &frameHasher{Conn: bPipe, sum: sha256.New()}
	var (
		wg   sync.WaitGroup
		bErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, bErr = RunBob(p, bob, sb)
		bPipe.Close()
	}()
	_, aErr := RunAlice(p, alice, sa)
	aPipe.Close()
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("alice err %v, bob err %v", aErr, bErr)
	}
	if got := hex.EncodeToString(alice.sum.Sum(nil)); got != wantA2B {
		t.Errorf("alice→bob frames SHA-256 %s, pinned %s", got, wantA2B)
	}
	if got := hex.EncodeToString(bob.sum.Sum(nil)); got != wantB2A {
		t.Errorf("bob→alice frames SHA-256 %s, pinned %s", got, wantB2A)
	}
}

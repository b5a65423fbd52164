package netproto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/transport"
)

// frameHasher is a transport.Conn that folds every frame it sends —
// exact bit count, then payload bytes — into a running SHA-256 before
// handing an identical frame to the wrapped conn, and counts the frames.
type frameHasher struct {
	transport.Conn
	sum    hash.Hash
	frames int
}

func (c *frameHasher) Send(e *transport.Encoder) error {
	data, bits := e.Pack()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(bits))
	c.sum.Write(n[:])
	c.sum.Write(data)
	c.frames++
	fwd := transport.NewEncoder()
	fwd.WriteBitString(data, bits)
	return c.Conn.Send(fwd)
}

// wirePin is one exchange's pinned traffic: the SHA-256 of every frame
// each side sent, and how many frames the responder sent (one IBLT per
// attempt, plus the point batch).
type wirePin struct {
	a2b, b2a  string
	bobFrames int
}

// runHashed runs an initiator/responder pair directly over a pipe (no
// session header) and returns both directions' frame hashes.
func runHashed(t *testing.T, init, resp Handler) wirePin {
	t.Helper()
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
		bErr = resp.Run(bob)
		bPipe.Close()
	}()
	aErr := init.Run(alice)
	aPipe.Close()
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("initiator err %v, responder err %v", aErr, bErr)
	}
	return wirePin{
		a2b:       hex.EncodeToString(alice.sum.Sum(nil)),
		b2a:       hex.EncodeToString(bob.sum.Sum(nil)),
		bobFrames: bob.frames,
	}
}

func checkPin(t *testing.T, got, want wirePin) {
	t.Helper()
	if got.a2b != want.a2b {
		t.Errorf("initiator→responder frames SHA-256 %s, pinned %s", got.a2b, want.a2b)
	}
	if got.b2a != want.b2a {
		t.Errorf("responder→initiator frames SHA-256 %s, pinned %s", got.b2a, want.b2a)
	}
	if got.bobFrames != want.bobFrames {
		t.Errorf("responder sent %d frames, pinned %d", got.bobFrames, want.bobFrames)
	}
}

// TestRepairWirePinned pins the SHA-256 of every frame a repair
// exchange (proto 7) sends in each direction: opened with a hint, and
// opened with a hint of 1 against 200 differing IDs, whose first table
// stalls so the doubling path is pinned.
func TestRepairWirePinned(t *testing.T) {
	space := metric.HammingCube(32)
	for _, c := range []struct {
		name         string
		hint         int
		onlyA, onlyB int
		want         wirePin
	}{
		{"hint", 24, 11, 7, wirePin{
			a2b:       "65d90b78d72bb23a5f48d4cff118f244e2223bab5686375ba01dba69167cc9fb",
			b2a:       "2885813089195b75354a5768768e3244560f3b5f61b28dba7a298fe8937fa38b",
			bobFrames: 2,
		}},
		{"stall", 1, 110, 90, wirePin{
			a2b:       "e5b6e172273baae3ed639de27002759ade6e3396ce3fbae69a7e7b93cef2b64e",
			b2a:       "4be3a5e15f7475b801af7dbbe12c41d660c270f473ecca946a5cbe2281b29bce",
			bobFrames: 6,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seed = 0x7e
			base := clusterPoints(space, 120, 0x71)
			a := newSyncSet(t, space, append(base.Clone(), clusterPoints(space, c.onlyA, 0x72)...), seed)
			b := newSyncSet(t, space, append(base.Clone(), clusterPoints(space, c.onlyB, 0x73)...), seed)
			init, err := NewRepairInitiator(a, c.hint)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := NewRepairResponderFactory(b)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, runHashed(t, init, factory()), c.want)
			if init.Sent != c.onlyA || init.Received != c.onlyB {
				t.Errorf("sent %d / received %d points, want %d / %d", init.Sent, init.Received, c.onlyA, c.onlyB)
			}
		})
	}
}

// TestProbeWirePinned pins the SHA-256 of both frames a probe exchange
// (proto 6) sends, at layout meshWireVersion: between identical sets,
// where each side sends its fixed summary fields alone, and between
// sets 5 points apart, where the reply appends the responder's strata.
func TestProbeWirePinned(t *testing.T) {
	space := metric.HammingCube(32)
	for _, c := range []struct {
		name    string
		extra   int
		matched bool
		want    wirePin
	}{
		{"matched", 0, true, wirePin{
			a2b:       "b01b534a3fd1f52383f77f71cafaf438360964b66f21970693ba8af63124dcf4",
			b2a:       "b01b534a3fd1f52383f77f71cafaf438360964b66f21970693ba8af63124dcf4",
			bobFrames: 1,
		}},
		{"mismatched", 5, false, wirePin{
			a2b:       "b01b534a3fd1f52383f77f71cafaf438360964b66f21970693ba8af63124dcf4",
			b2a:       "eec142a137c5d4c1f7837430b6b0282d717116d34e228644433e1633895c591a",
			bobFrames: 1,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seed = 0x7e
			base := clusterPoints(space, 120, 0x71)
			a := newSyncSet(t, space, base, seed)
			b := newSyncSet(t, space, append(base.Clone(), clusterPoints(space, c.extra, 0x73)...), seed)
			probe := newProbe(t, a)
			checkPin(t, runHashed(t, probe, newProbeResponder(t, b)), c.want)
			if probe.Matched != c.matched {
				t.Errorf("matched %v, want %v", probe.Matched, c.matched)
			}
		})
	}
}

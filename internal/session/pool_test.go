package session

import (
	"sync"
	"testing"

	"repro/internal/netproto"
)

// TestPooledCodecsNoCrossSessionAliasing runs many concurrent sessions
// over the pooled codec paths (recycled encoders, reused frame buffers,
// pooled riblt table memory) and checks every session recovers the
// identical reconciliation result. Bob's rounding randomness is derived
// from the shared seed, so S′B is deterministic: any cross-session
// buffer aliasing — a recycled frame read by the wrong session, a
// scratch arena shared by two peers — corrupts a sketch and surfaces as
// a protocol error or a diverging result. Run under -race in CI.
func TestPooledCodecsNoCrossSessionAliasing(t *testing.T) {
	f := newFixture(t)
	factory, err := netproto.NewEMDSenderFactory(f.emdParams, f.emdSA)
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

	// Reference result from one clean session.
	ref := netproto.NewEMDReceiver(f.emdParams, f.emdSB)
	if _, err := d.Do(ref); err != nil {
		t.Fatal(err)
	}
	if ref.Result.Failed {
		t.Fatal("reference session failed to decode")
	}

	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h := netproto.NewEMDReceiver(f.emdParams, f.emdSB)
				if _, err := d.Do(h); err != nil {
					errs <- err
					return
				}
				if h.Result.Failed != ref.Result.Failed || h.Result.Level != ref.Result.Level ||
					len(h.Result.SPrime) != len(ref.Result.SPrime) {
					t.Errorf("session diverged: level %d/%d, |S'| %d/%d",
						h.Result.Level, ref.Result.Level, len(h.Result.SPrime), len(ref.Result.SPrime))
					return
				}
				for j := range h.Result.SPrime {
					if !h.Result.SPrime[j].Equal(ref.Result.SPrime[j]) {
						t.Errorf("session S' diverged at point %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("session error: %v", err)
	}
}

package session

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/simnet"
)

// TestServeListenerClosedDistinct pins the accept-loop contract: a
// listener closed out from under a still-open server surfaces as
// ErrListenerClosed (matchable with errors.Is), distinct from both
// ErrServerClosed (orderly server Close) and real accept failures —
// so shutdown-order tests never have to match error strings.
func TestServeListenerClosedDistinct(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		net  string
		addr string
	}{
		{"tcp", Config{}, "tcp", "127.0.0.1:0"},
		{"simnet", Config{Transport: simnet.New(1).Host("srv")}, "sim", "srv:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(tc.cfg)
			l, err := srv.cfg.Transport.Listen(tc.net, tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(l) }()
			time.Sleep(10 * time.Millisecond) // let Serve reach Accept
			l.Close()
			select {
			case err := <-serveErr:
				if !errors.Is(err, ErrListenerClosed) {
					t.Fatalf("Serve returned %v, want ErrListenerClosed", err)
				}
				if errors.Is(err, ErrServerClosed) {
					t.Fatal("listener-closed must not alias server-closed")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after listener close")
			}
			// A lone listener teardown is not a server failure: other
			// listeners (tcp + unix, say) may still be serving, so a
			// health check reading Err() must keep seeing a healthy
			// server.
			if err := srv.Err(); err != nil {
				t.Fatalf("Err() = %v, want nil (listener close is not a terminal server failure)", err)
			}
			// The server itself is still open and closable.
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeServerCloseStillOrderly: closing the server (not the bare
// listener) keeps returning ErrServerClosed and a nil Err().
func TestServeServerCloseStillOrderly(t *testing.T) {
	srv := NewServer(Config{})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = l
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err() after orderly Close = %v, want nil", err)
	}
}

// TestQuiesceWaitsForSessionTeardown: Quiesce must block until the
// server side of a completed session has fully finished — including
// the OnSession callback, which runs after the client's own session
// already returned.
func TestQuiesceWaitsForSessionTeardown(t *testing.T) {
	f := newFixture(t)
	var torndown atomic.Bool
	srv := NewServer(Config{
		OnSession: func(*Session) {
			time.Sleep(100 * time.Millisecond)
			torndown.Store(true)
		},
		Resolver: netproto.Handlers(func() netproto.Handler {
			return netproto.NewGapSender(f.gapParams, f.gapSA)
		}),
	})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := Dialer{Addr: l.Addr().String()}
	if _, err := d.Do(gapHandler(f)); err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	if !torndown.Load() {
		t.Fatal("Quiesce returned before the session's OnSession callback completed")
	}
	srv.Quiesce() // idle server: immediate no-op
	if got := srv.Served(); got != 1 {
		t.Fatalf("served = %d, want 1", got)
	}
}

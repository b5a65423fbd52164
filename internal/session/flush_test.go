package session

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// A mux stream holds a turn's frames until its owner reads or closes.
// These tests pin that holding back can never hang a session: a handler
// that waits on something other than its stream flushes first, and a
// side that fails mid-protocol releases its blocked peer at once, not
// at the session deadline.

// turnProto is a protocol number no production handler uses.
const turnProto netproto.Proto = 201

// turnHandler is a scriptable handler for turnProto: run is its whole
// protocol.
type turnHandler struct {
	role netproto.Role
	run  func(transport.Conn) error
}

func (h *turnHandler) Proto() netproto.Proto         { return turnProto }
func (h *turnHandler) Role() netproto.Role           { return h.role }
func (h *turnHandler) Digest() uint64                { return 0x7e57 }
func (h *turnHandler) Run(conn transport.Conn) error { return h.run(conn) }

func sendBool(conn transport.Conn, v bool) error {
	e := transport.NewEncoder()
	e.WriteBool(v)
	return conn.Send(e)
}

// turnServer serves respond as turnProto's responder over a pooled
// carrier, and reports each responder session's error on the returned
// channel as the session ends. Both sides get a session budget far
// beyond what any of the tests may take.
func turnServer(t *testing.T, respond func(transport.Conn) error) (*MuxPool, string, <-chan error) {
	t.Helper()
	const budget = 30 * time.Second
	ended := make(chan error, 1)
	srv := NewServer(Config{
		SessionTimeout: budget,
		OnSession:      func(s *Session) { ended <- s.Err() },
		Resolver: netproto.Handlers(func() netproto.Handler {
			return &turnHandler{role: netproto.RoleBob, run: respond}
		}),
	})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := &MuxPool{SessionTimeout: budget}
	t.Cleanup(func() { pool.Close() })
	return pool, l.Addr().String(), ended
}

// responderEnd returns the responder session's error, failing the test
// unless the session ends within d.
func responderEnd(t *testing.T, ended <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-ended:
		return err
	case <-time.After(d):
		t.Fatalf("responder still running %v after the initiator returned", d)
		return nil
	}
}

// TestMuxFlushBeforeWaitingElsewhere: a responder sends its reply and
// then waits until the initiator has received it — a wait on something
// other than its own stream. Only its explicit netproto.Flush puts the
// reply on the wire; without it the reply stays staged and the wait
// times out.
func TestMuxFlushBeforeWaitingElsewhere(t *testing.T) {
	received := make(chan struct{})
	pool, addr, ended := turnServer(t, func(conn transport.Conn) error {
		if _, err := conn.Recv(); err != nil {
			return err
		}
		if err := sendBool(conn, true); err != nil {
			return err
		}
		if err := netproto.Flush(conn); err != nil {
			return err
		}
		select {
		case <-received:
			return nil
		case <-time.After(3 * time.Second):
			return errors.New("the initiator never received the reply")
		}
	})
	h := &turnHandler{role: netproto.RoleAlice, run: func(conn transport.Conn) error {
		if err := sendBool(conn, true); err != nil {
			return err
		}
		if _, err := conn.Recv(); err != nil {
			return err
		}
		close(received)
		return nil
	}}
	if _, err := pool.Do(addr, "", h); err != nil {
		t.Fatal(err)
	}
	if err := responderEnd(t, ended, 10*time.Second); err != nil {
		t.Fatalf("responder failed: %v", err)
	}
}

// TestMuxFailedInitiatorReleasesResponder: an initiator that fails
// mid-protocol, with its frames still staged, must release a responder
// blocked in Recv well inside the session budget.
func TestMuxFailedInitiatorReleasesResponder(t *testing.T) {
	pool, addr, ended := turnServer(t, func(conn transport.Conn) error {
		if _, err := conn.Recv(); err != nil {
			return err
		}
		_, err := conn.Recv() // the initiator never sends this one
		return err
	})
	gaveUp := errors.New("initiator gives up")
	h := &turnHandler{role: netproto.RoleAlice, run: func(conn transport.Conn) error {
		if err := sendBool(conn, true); err != nil {
			return err
		}
		return gaveUp
	}}
	if _, err := pool.Do(addr, "", h); !errors.Is(err, gaveUp) {
		t.Fatalf("initiator returned %v, want its own failure", err)
	}
	if err := responderEnd(t, ended, 5*time.Second); err == nil {
		t.Fatal("responder succeeded without its second frame")
	}
}

// TestMuxFailedResponderReleasesInitiator: a responder that fails
// mid-protocol must release an initiator waiting for its reply well
// inside the session budget.
func TestMuxFailedResponderReleasesInitiator(t *testing.T) {
	gaveUp := errors.New("responder gives up")
	pool, addr, ended := turnServer(t, func(conn transport.Conn) error {
		if _, err := conn.Recv(); err != nil {
			return err
		}
		return gaveUp
	})
	h := &turnHandler{role: netproto.RoleAlice, run: func(conn transport.Conn) error {
		if err := sendBool(conn, true); err != nil {
			return err
		}
		_, err := conn.Recv() // the responder never answers
		return err
	}}
	done := make(chan error, 1)
	go func() {
		_, err := pool.Do(addr, "", h)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("initiator succeeded without a reply")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("initiator still waiting 5s after the responder failed")
	}
	if err := responderEnd(t, ended, 5*time.Second); !errors.Is(err, gaveUp) {
		t.Fatalf("responder ended with %v, want its own failure", err)
	}
}

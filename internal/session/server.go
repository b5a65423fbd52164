package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// ErrServerClosed is returned by Serve and Listen after Close.
var ErrServerClosed = errors.New("session: server closed")

// ErrListenerClosed is returned by Serve when the listener it was given
// is closed out from under a still-open server. It is distinct from
// ErrServerClosed (an orderly Close of the server itself) and from real
// accept failures (fd exhaustion, a dead socket), so shutdown-order
// tests — simnet scenarios tear listeners and servers down in scripted
// sequences — can branch on errors.Is instead of racing on error
// strings.
var ErrListenerClosed = errors.New("session: listener closed")

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxSessions caps concurrently running sessions (default 64).
	// Excess connections wait for a slot rather than being rejected, so
	// a burst of peers degrades to queueing, not failures.
	MaxSessions int
	// SessionTimeout is the absolute wall-clock budget for one session,
	// enforced as a connection deadline covering negotiation and every
	// protocol round (default 2 minutes; negative disables).
	SessionTimeout time.Duration
	// OnSession, when set, is called after each session completes
	// (successfully or not), from the session's goroutine. Use it to
	// harvest typed results from the session's Handler.
	OnSession func(*Session)
	// Resolver names the handler factory for each session hello:
	// netproto.StoreResolver serves every set of a multi-tenant store,
	// the default ("") set included; netproto.Handlers serves fixed
	// factories on the default set. Nil serves nothing: every session
	// hello is refused as an unknown set.
	Resolver netproto.Resolver
	// Logf, when set, receives one line per session and per accept
	// error (e.g. log.Printf).
	Logf func(format string, args ...any)
	// Transport supplies listeners (nil = NetTransport, the real
	// network). Point it at a simnet host to serve the deterministic
	// virtual network instead.
	Transport Transport
}

// Server accepts connections and runs each as a Session against the
// handler factory its Config.Resolver names. Handlers carry per-session
// state, so the resolver names factories: one fresh handler per peer.
type Server struct {
	cfg     Config
	sem     chan struct{}
	logging bool // Config.Logf was given: finish formats its session line

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{} // in-flight session and carrier connections
	busy      int                   // in-flight session units (plain conns + mux streams)
	idle      *sync.Cond            // lazily built; signalled when busy drains (Quiesce)
	closed    bool
	serveErr  error // first terminal Serve failure

	wg      sync.WaitGroup
	done    chan struct{}
	nextID  atomic.Uint64
	active  atomic.Int64
	served  atomic.Uint64
	failed  atomic.Uint64
	traffic transport.Collector
}

// NewServer builds a server that answers each hello through
// cfg.Resolver.
func NewServer(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Transport == nil {
		cfg.Transport = NetTransport
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 2 * time.Minute
	}
	logging := cfg.Logf != nil
	if !logging {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{
		cfg:       cfg,
		logging:   logging,
		sem:       make(chan struct{}, cfg.MaxSessions),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
}

// Listen announces on the network (tcp/unix) address and serves in the
// background, returning the bound listener (useful with ":0"). A
// terminal Serve failure (other than Close) is retained and readable
// via Err, as well as logged via Logf. After Close, Listen fails with
// ErrServerClosed instead of binding a socket whose background Serve
// goroutine would exit immediately — the caller would otherwise hold a
// listener that looks live but serves nothing.
func (s *Server) Listen(network, addr string) (net.Listener, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrServerClosed
	}
	l, err := s.cfg.Transport.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(l) //nolint:errcheck // background serve; terminal errors surface via Err
	return l, nil
}

// Err returns the first terminal Serve failure (nil while healthy, and
// after an orderly Close). Callers running Serve in the background via
// Listen should check it when clients start failing.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Serve accepts connections on l until Close, running each as a
// session. It always returns a non-nil error; after Close the error is
// ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			// A closed listener on a still-open server is an orderly
			// teardown of that one listener, not an accept failure:
			// return the sentinel instead of the transport's wrapped
			// error so callers need not match error strings. It is not
			// recorded as the server's terminal failure — a server
			// whose other listeners keep serving is still healthy and
			// Err() must stay nil.
			if errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("session: accept: %v", ErrListenerClosed)
				return ErrListenerClosed
			}
			// Transient failures (fd exhaustion under load, interrupted
			// accept) must not permanently stop the listener while the
			// daemon keeps running; retry with backoff, as net/http does.
			// net.Error.Temporary is deprecated but remains the only
			// signal that distinguishes EMFILE/ECONNABORTED from a dead
			// listener — net/http's Serve loop still relies on it.
			if ne, ok := err.(net.Error); ok && ne.Temporary() { //nolint:staticcheck
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.cfg.Logf("session: accept (retrying in %v): %v", backoff, err)
				select {
				case <-time.After(backoff):
					continue
				case <-s.done:
					return ErrServerClosed
				}
			}
			s.cfg.Logf("session: accept: %v", err)
			s.mu.Lock()
			if s.serveErr == nil {
				s.serveErr = err
			}
			s.mu.Unlock()
			return err
		}
		backoff = 0
		// wg.Add must not race with Close's wg.Wait: both take s.mu, so
		// either Close sees this session's Add and waits for it, or this
		// path sees closed and drops the connection.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.wg.Add(1)
		s.conns[conn] = struct{}{}
		s.busy++
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn negotiates and runs one connection: a session hello is one
// session, a carrier hello turns the connection into a long-lived mux
// whose streams are the sessions.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// billed: this connection counts as one in-flight session unit. A
	// carrier stops being one after negotiation — its streams are the
	// units Quiesce waits on — but stays in s.conns so Shutdown's
	// force-close still reaches it.
	billed := true
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		if billed {
			s.unbillLocked()
		}
		s.mu.Unlock()
	}()

	// Concurrency slot: block (bounded by the connection deadline set
	// below only after acquiring — a waiting peer is not yet billed).
	// Check done first so a closing server sheds waiting peers instead
	// of racing them against free slots; a session that does slip
	// through is still covered by wg, so Close waits for it.
	select {
	case <-s.done:
		return
	default:
	}
	select {
	case s.sem <- struct{}{}:
	case <-s.done:
		return
	}
	semHeld := true
	defer func() {
		if semHeld {
			<-s.sem
		}
	}()

	if s.cfg.SessionTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.cfg.SessionTimeout)) //nolint:errcheck
	}
	w := netproto.NewWire(conn)
	// Frame buffers go back to the pool once the session (including the
	// OnSession callback, which runs inside finish) is fully done; the
	// Session keeps the wire for Stats, which Release leaves intact.
	defer w.Release()
	sess := &Session{
		id:    s.nextID.Add(1),
		peer:  conn.RemoteAddr().String(),
		wire:  w,
		start: time.Now(),
	}
	hello, err := netproto.ReadHello(w)
	if err != nil {
		// Route through finish so Failed(), Stats() and OnSession stay
		// consistent; the Session has no negotiated proto or handler.
		s.finish(sess, fmt.Errorf("session: bad hello: %w", err))
		return
	}
	if hello.Mux {
		if err := netproto.SendAccept(w, netproto.StatusOK, 0); err != nil {
			s.finish(sess, err)
			return
		}
		w.Release()
		// The carrier is long-lived: it is not bound by the session
		// deadline (each stream gets its own), holds no concurrency
		// slot (each stream takes one), and is not a session unit
		// (Quiesce waits on its streams instead).
		conn.SetDeadline(time.Time{}) //nolint:errcheck
		<-s.sem
		semHeld = false
		s.mu.Lock()
		s.unbillLocked()
		s.mu.Unlock()
		billed = false
		s.cfg.Logf("session: mux carrier up for %s", sess.peer)
		s.serveMux(conn)
		s.cfg.Logf("session: mux carrier down for %s", sess.peer)
		return
	}
	s.runHello(w, hello, sess, nil)
}

// runHello answers and runs one session whose hello has been read from
// w, which rides st when the session is a mux stream (nil on a
// dedicated connection); it always routes through finish, and returns
// the session's terminal error for the caller's teardown decisions.
func (s *Server) runHello(w *netproto.Wire, hello netproto.Hello, sess *Session, st *muxStream) error {
	sess.proto = hello.Proto
	sess.set = hello.Set
	h, err := netproto.AnswerHello(w, hello, s.cfg.Resolver)
	if err != nil {
		s.finish(sess, err)
		return err
	}
	sess.handler = h
	sess.role = h.Role()
	if st != nil {
		st.holdAccept()
	}
	s.active.Add(1)
	err = h.Run(w)
	s.active.Add(-1)
	// A mux stream may still hold the handler's last frames: send them
	// before accounting, logging and OnSession, not after.
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	s.finish(sess, err)
	return err
}

// serveMux demultiplexes a negotiated carrier until the
// connection dies. Each peer-opened stream is billed as a session unit
// synchronously from the carrier's read loop — before any of the
// stream's bytes are readable — so a Quiesce barrier that has observed
// an initiator's result cannot miss the responder's still-running
// stream.
func (s *Server) serveMux(conn net.Conn) {
	var m *muxConn
	m = newMuxConn(conn, func(st *muxStream) {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			st.fail(ErrServerClosed)
			m.forget(st)
			return
		}
		s.wg.Add(1)
		s.busy++
		s.mu.Unlock()
		go s.serveStream(m, st)
	})
	if s.cfg.SessionTimeout > 0 {
		// Bounds each carrier write so one wedged peer cannot block the
		// shared connection forever.
		m.writeTimeout = s.cfg.SessionTimeout
	}
	// A healthy idle carrier never ends on its own; drain it when the
	// server closes so Close/Shutdown do not hang on a pooled peer.
	watch := make(chan struct{})
	go func() {
		select {
		case <-s.done:
			m.drain()
		case <-watch:
		}
	}()
	m.readLoop()
	close(watch)
}

// errStreamAborted is a served stream's outcome until its session
// negotiates; one shared value, so serving a stream allocates no error.
var errStreamAborted = errors.New("session: stream aborted before negotiation")

// serveStream runs one multiplexed session: the stream carries exactly
// the byte stream a dedicated session connection would, so a carrier
// hello on it is refused like any hello no session can answer.
func (s *Server) serveStream(m *muxConn, st *muxStream) {
	defer s.wg.Done()
	// Clean exits close quietly: the protocol's terminal frame already
	// released the initiator, and it closes the stream itself — an
	// announced close here would be the carrier's only spontaneous
	// responder write, racing the next stream's traffic. Error exits
	// announce, so an initiator blocked mid-protocol fails now rather
	// than at its session deadline (the mux analogue of the dedicated
	// connection's teardown close).
	sessErr := errStreamAborted
	defer func() {
		if sessErr != nil {
			st.Close()
		} else {
			st.closeQuiet()
		}
		s.mu.Lock()
		s.unbillLocked()
		s.mu.Unlock()
	}()

	// Concurrency slot, exactly as for a dedicated connection: streams
	// queue for capacity rather than being rejected.
	select {
	case s.sem <- struct{}{}:
	case <-s.done:
		return
	}
	defer func() { <-s.sem }()

	if s.cfg.SessionTimeout > 0 {
		st.setTimeout(s.cfg.SessionTimeout)
	}
	w := netproto.NewWire(st)
	defer w.Release()
	sess := &Session{
		id:    s.nextID.Add(1),
		peer:  fmt.Sprintf("%s#%d", m.peerName, st.id),
		wire:  w,
		start: time.Now(),
	}
	hello, err := netproto.ReadHello(w)
	if err != nil {
		sessErr = fmt.Errorf("session: bad hello: %w", err)
		s.finish(sess, sessErr)
		return
	}
	sessErr = s.runHello(w, hello, sess, st)
}

// unbillLocked retires one in-flight session unit, waking Quiesce when
// the last one drains. Caller holds s.mu.
func (s *Server) unbillLocked() {
	s.busy--
	if s.busy == 0 && s.idle != nil {
		s.idle.Broadcast()
	}
}

// finish closes out a session: accounting, callback, log line.
func (s *Server) finish(sess *Session, err error) {
	sess.dur = time.Since(sess.start)
	sess.err = err
	s.traffic.Add(sess.wire.Stats())
	if err != nil {
		s.failed.Add(1)
	} else {
		s.served.Add(1)
	}
	if s.cfg.OnSession != nil {
		s.cfg.OnSession(sess)
	}
	if !s.logging {
		return
	}
	st := sess.wire.Stats()
	set := sess.set
	if set == "" {
		set = "<default>"
	}
	if err != nil {
		s.cfg.Logf("session #%d %s set=%s proto=%v err=%v", sess.id, sess.peer, set, sess.proto, err)
	} else {
		s.cfg.Logf("session #%d %s set=%s proto=%v/%v %s in %v",
			sess.id, sess.peer, set, sess.proto, sess.role, st, sess.dur.Round(time.Microsecond))
	}
}

// Stats returns the aggregate traffic across all completed sessions and
// how many sessions completed (successfully or not). Safe to call
// concurrently with serving.
func (s *Server) Stats() (transport.Stats, int) {
	return s.traffic.Total()
}

// Served returns the number of sessions that completed successfully.
func (s *Server) Served() uint64 { return s.served.Load() }

// Failed returns the number of sessions that ended in an error,
// including rejected negotiations.
func (s *Server) Failed() uint64 { return s.failed.Load() }

// Active returns the number of sessions currently mid-protocol.
func (s *Server) Active() int64 { return s.active.Load() }

// Quiesce blocks until every connection accepted so far has finished
// its session and been fully torn down (handler done, accounting and
// OnSession callback included). It does not stop the server or prevent
// new connections; callers that need a stable barrier — the
// deterministic simulation harness quiesces the whole mesh between
// anti-entropy rounds, because a repair responder applies its merge
// after the initiator's session already returned — must ensure no new
// dials race the call.
func (s *Server) Quiesce() {
	s.mu.Lock()
	for s.busy > 0 {
		s.idleWait().Wait()
	}
	s.mu.Unlock()
}

// idleWait returns the cond signalled when the in-flight session units
// (plain connections and mux streams; idle carriers don't count) drain.
// Caller holds s.mu.
func (s *Server) idleWait() *sync.Cond {
	if s.idle == nil {
		s.idle = sync.NewCond(&s.mu)
	}
	return s.idle
}

// Close stops accepting, closes all listeners, and waits for running
// sessions to finish (bounded by their connection deadlines).
func (s *Server) Close() error {
	s.beginClose()
	s.wg.Wait()
	return nil
}

// ErrDrainTimeout is returned by Shutdown when in-flight sessions were
// force-closed because they outlived the drain deadline.
var ErrDrainTimeout = errors.New("session: drain deadline exceeded, sessions force-closed")

// Shutdown stops accepting and drains gracefully: in-flight sessions
// get up to drain to finish on their own, then their connections are
// force-closed (the handlers fail with a closed-connection error and
// still go through normal accounting). It returns nil on a clean drain
// and ErrDrainTimeout when force-closing was needed; either way, no
// session goroutines remain on return. drain <= 0 force-closes
// immediately.
func (s *Server) Shutdown(drain time.Duration) error {
	s.beginClose()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drain > 0 {
		select {
		case <-done:
			return nil
		case <-time.After(drain):
		}
	}
	s.mu.Lock()
	stragglers := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	if stragglers == 0 {
		return nil
	}
	s.cfg.Logf("session: shutdown force-closed %d in-flight sessions after %v drain", stragglers, drain)
	return ErrDrainTimeout
}

// beginClose makes the server stop accepting: mark closed, wake
// waiters, close listeners. Idempotent.
func (s *Server) beginClose() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	for l := range s.listeners {
		l.Close()
	}
}

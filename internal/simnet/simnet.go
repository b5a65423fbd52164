// Package simnet is a deterministic, fault-injecting virtual network:
// an in-memory implementation of net.Listener / net.Conn that the
// session and cluster layers can run over unchanged (they dial and
// listen through the session.Transport abstraction), with scriptable
// faults — per-link latency distributions, bandwidth caps, connection
// drops at byte offset N, downed links, and named partitions.
//
// Determinism is the point. All randomness (latency samples) derives
// from the network seed via internal/rng, split per connection in dial
// order; connection byte streams are synchronous pipes, so for the
// half-duplex, strictly alternating frame protocols this stack speaks,
// every byte crosses each link in one reproducible order. A scenario
// driven sequentially over a simnet (see simnet/scenario) therefore
// produces the same event trace for the same seed, and a failure found
// at seed S is replayed exactly by running seed S again.
//
// Faults produce deterministic *errors* too: when a fault severs a
// connection, both endpoints report the same canonical cut error from
// every subsequent operation, rather than whichever of EOF /
// closed-pipe the teardown race would have produced.
//
// What simnet does not model: virtual time. Latency and bandwidth
// faults are real (deterministically sampled) sleeps on the writer's
// side, so they exercise ordering and slow-peer behavior, but a
// scenario's wall-clock time grows with its injected latency, and
// traces remain deterministic only while injected delays stay well
// under the stack's session deadlines (the shipped scenarios keep
// microsecond-to-millisecond latencies against minute-scale deadlines).
package simnet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Addr is a simnet endpoint address. The string form is "host:port";
// everything before the last colon names the host (the unit of
// partitioning), the rest distinguishes listeners on one host.
type Addr string

// Network names the virtual network ("sim").
func (Addr) Network() string { return "sim" }

// String returns the address in "host:port" form.
func (a Addr) String() string { return string(a) }

// hostOf extracts the host (partition unit) from an address.
func hostOf(addr string) string {
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[:i]
	}
	return addr
}

// linkKey identifies the unordered host pair a connection crosses.
type linkKey struct{ a, b string }

func keyOf(h1, h2 string) linkKey {
	if h1 > h2 {
		h1, h2 = h2, h1
	}
	return linkKey{h1, h2}
}

// Event is one connection-level occurrence, delivered to OnEvent in a
// deterministic order (see Network.OnEvent).
type Event struct {
	// Kind is "dial", "refused", "cut", or "flip".
	Kind string
	// From and To are the host names: dialer first for dial events,
	// the faulted stream's writer first for drop-at-offset cuts and
	// flips, the link's hosts in name order for other cuts.
	From, To string
	// Detail is the refusal reason, or the fault and its byte offset:
	// in the faulted stream for drop-at-offset cuts and flips, over
	// both directions for other cuts.
	Detail string
}

// String renders the event as one stable trace line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s %s->%s", e.Kind, e.From, e.To)
	}
	return fmt.Sprintf("%s %s->%s (%s)", e.Kind, e.From, e.To, e.Detail)
}

// link holds the configured faults for one host pair. The zero value is
// a clean link.
type link struct {
	latMin, latMax time.Duration
	bps            int64 // bytes/second, 0 = unlimited
	down           bool
	dropAt         int64  // armed cut offset for the NEXT conn; -1 = none
	dropFrom       string // the host whose outgoing stream dropAt counts
	flipAt         int64  // armed corruption offset for the NEXT conn; -1 = none
	flipFrom       string // the host whose outgoing stream flipAt counts
	flipLen        int    // corruption window length in bytes
	connSeq        uint64
	pairs          []*pair // every conn ever opened on the link, dial order
}

// Network is the virtual network: a registry of hosts, listeners,
// per-link fault state, and open connections. Construct with New; all
// methods are safe for concurrent use.
type Network struct {
	seed uint64

	// OnEvent, when set (before any traffic), receives connection
	// events. Dial and refusal events fire on the dialing goroutine. A
	// drop-at-offset cut event fires on the goroutine whose write
	// crossed the fault offset, strictly before any byte of that chunk
	// is delivered — so even when the cut lands exactly on a frame
	// boundary (the peer receives a complete frame and carries on),
	// everything downstream of that frame is ordered after the event.
	// A single-threaded driver therefore sees events in a
	// deterministic order. The callback runs with internal locks held:
	// it must not call back into the Network, and it must be
	// internally synchronized (it may fire from connection
	// goroutines).
	OnEvent func(Event)

	mu        sync.Mutex
	listeners map[string]*listener
	links     map[linkKey]*link
	group     map[string]int // partition group per host; absent = 0
	open      int            // unclosed conn endpoints
}

// New builds an empty network. The seed drives every latency sample;
// two networks with the same seed and the same (deterministic) usage
// behave identically.
func New(seed uint64) *Network {
	return &Network{
		seed:      seed,
		listeners: make(map[string]*listener),
		links:     make(map[linkKey]*link),
		group:     make(map[string]int),
	}
}

// Host returns a handle dialing and listening as the named host. It
// implements the session.Transport interface, so it can be plugged
// directly into session.Config, session.Dialer, and cluster.Config.
func (n *Network) Host(name string) *Host { return &Host{n: n, name: name} }

// linkLocked returns (creating if needed) the host pair's link state.
// Caller holds n.mu.
func (n *Network) linkLocked(k linkKey) *link {
	l := n.links[k]
	if l == nil {
		l = &link{dropAt: -1, flipAt: -1}
		n.links[k] = l
	}
	return l
}

func (n *Network) emitLocked(e Event) {
	if n.OnEvent != nil {
		n.OnEvent(e)
	}
}

// SetLatency configures the link between hosts a and b to delay every
// delivered chunk by a uniform sample from [min, max] (sampled from a
// per-connection deterministic stream). Zero durations clear it.
func (n *Network) SetLatency(a, b string, min, max time.Duration) {
	if max < min {
		min, max = max, min
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.linkLocked(keyOf(a, b))
	l.latMin, l.latMax = min, max
}

// SetBandwidth caps the link between a and b at bps bytes per second
// (0 = unlimited), modeled as a per-chunk writer-side delay.
func (n *Network) SetBandwidth(a, b string, bps int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(keyOf(a, b)).bps = bps
}

// DropAfter arms a one-shot fault on the a—b link: the next connection
// opened between the hosts is severed as soon as offset bytes of its
// a→b stream have crossed it. Bytes b sends back do not count, so the
// cut lands at the same point of a's stream however the two directions
// interleave. Offset 0 cuts before a's first byte (a reset in the
// middle of the dial handshake when a dials). On a host's link to
// itself the dialer's stream counts.
func (n *Network) DropAfter(a, b string, offset int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.linkLocked(keyOf(a, b))
	l.dropAt = offset
	l.dropFrom = a
}

// FlipAfter arms a one-shot corruption fault on the a—b link (the
// sibling of DropAfter): on the next connection opened between the
// hosts, the count bytes of its a→b stream starting at offset are
// delivered bitwise-inverted instead of severed. The connection stays
// up — corruption is silent at the transport layer; only an integrity
// check above (frame checksums, verify-before-merge) can notice. A
// "flip" event is emitted per delivered chunk the window touches,
// before any byte of that chunk is delivered.
func (n *Network) FlipAfter(a, b string, offset int64, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.linkLocked(keyOf(a, b))
	l.flipAt = offset
	l.flipFrom = a
	l.flipLen = count
}

// ClearFaults returns the network to a clean reachable state: every
// link-level armed DropAfter is disarmed, every downed link comes
// back up, and any partition heals. Latency and bandwidth shaping stay
// in place (they degrade, not sever), and a drop already inherited by
// a live connection at dial time stays with that connection — a
// harness that needs a fully fault-free phase must let in-flight
// connections finish first (as the scenario canary round does by
// quiescing every node). Call this when a fault window ends, so a drop
// scripted on a link that was never dialed again — or a link left down
// — cannot fire during a later phase that asserts on a clean network.
func (n *Network) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.dropAt = -1
		l.flipAt = -1
		l.down = false
	}
	n.group = make(map[string]int)
}

// SetDown marks the a—b link down (dials fail, live connections are
// severed) or back up.
func (n *Network) SetDown(a, b string, down bool) {
	n.mu.Lock()
	l := n.linkLocked(keyOf(a, b))
	l.down = down
	var cut []*pair
	if down {
		cut = append(cut, l.pairs...)
	}
	n.mu.Unlock()
	cutAll(cut, "link down")
}

// cutAll severs the still-live pairs of the batch in a deterministic
// order (link key, then dial sequence): candidates are collected from
// map iteration, and already-dead connections must neither emit events
// nor have their order observed.
func cutAll(pairs []*pair, reason string) {
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.key != b.key {
			if a.key.a != b.key.a {
				return a.key.a < b.key.a
			}
			return a.key.b < b.key.b
		}
		return a.id < b.id
	})
	for _, p := range pairs {
		if p.alive() {
			p.cut(reason)
		}
	}
}

// Partition splits the hosts into isolated groups: hosts in different
// listed groups (or in no listed group — those form one implicit
// remainder group) cannot dial each other, and live connections across
// the divide are severed. A later call replaces the whole partition;
// Heal removes it.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	n.group = make(map[string]int)
	for gi, g := range groups {
		for _, h := range g {
			n.group[h] = gi + 1
		}
	}
	var cut []*pair
	for _, l := range n.links {
		for _, p := range l.pairs {
			if n.group[p.key.a] != n.group[p.key.b] {
				cut = append(cut, p)
			}
		}
	}
	n.mu.Unlock()
	cutAll(cut, "partition")
}

// Heal removes the partition; all hosts can reach each other again.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[string]int)
}

// OpenConns returns the number of connection endpoints not yet closed —
// the session-leak check scenarios run after draining their nodes.
func (n *Network) OpenConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.open
}

// ConnWrites returns, for each connection ever opened between a and b
// (in dial order), the sizes of the chunks a delivered across it to b,
// in delivery order. On a dedicated session connection each chunk is
// one frame, so cumulative sums are the offsets of a's frame
// boundaries, which DropAfter(a, b, ·) and FlipAfter(a, b, ·, ·) count
// in; a mux carrier writes a whole turn's frames as one chunk.
func (n *Network) ConnWrites(a, b string) [][]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.links[keyOf(a, b)]
	if l == nil {
		return nil
	}
	out := make([][]int, len(l.pairs))
	for i, p := range l.pairs {
		p.mu.Lock()
		out[i] = append([]int(nil), p.writes[p.dirFrom(a)]...)
		p.mu.Unlock()
	}
	return out
}

// Host is a named endpoint of the network; see Network.Host.
type Host struct {
	n    *Network
	name string
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listen implements the transport interface: it binds a listener at
// addr, whose host part must be this host's name. The network string is
// ignored (by convention "sim").
func (h *Host) Listen(network, addr string) (net.Listener, error) {
	if hostOf(addr) != h.name {
		return nil, fmt.Errorf("simnet: host %q cannot listen on %q", h.name, addr)
	}
	n := h.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("simnet: listen %s: address already in use", addr)
	}
	l := &listener{n: n, addr: Addr(addr), ch: make(chan net.Conn, 64), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// DialTimeout implements the transport interface: it connects this host
// to the listener at addr, applying the link's partition, down, drop,
// latency, and bandwidth faults. The network string is ignored.
func (h *Host) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	n := h.n
	to := hostOf(addr)
	key := keyOf(h.name, to)
	n.mu.Lock()
	refuse := func(reason string) (net.Conn, error) {
		n.emitLocked(Event{Kind: "refused", From: h.name, To: to, Detail: reason})
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s from %s: %s", addr, h.name, reason)
	}
	if n.group[h.name] != n.group[to] {
		return refuse("host unreachable (partition)")
	}
	lk := n.linkLocked(key)
	if lk.down {
		return refuse("link down")
	}
	l := n.listeners[addr]
	if l == nil {
		return refuse("connection refused")
	}
	lk.connSeq++
	p := &pair{
		n:        n,
		key:      key,
		id:       lk.connSeq,
		hosts:    [2]string{h.name, to},
		dropAt:   lk.dropAt,
		flipAt:   lk.flipAt,
		flipLen:  lk.flipLen,
		latMin:   lk.latMin,
		latMax:   lk.latMax,
		bps:      lk.bps,
		openEnds: 2,
		latSrc:   rng.New(n.seed ^ hashLink(key) ^ (lk.connSeq * 0x9e3779b97f4a7c15)),
	}
	p.dropDir = p.dirFrom(lk.dropFrom)
	p.flipDir = p.dirFrom(lk.flipFrom)
	lk.dropAt = -1 // one-shot: the armed faults belong to this conn
	lk.flipAt = -1
	r1, r2 := net.Pipe()
	local := Addr(fmt.Sprintf("%s:c%d", h.name, p.id))
	cl := &Conn{p: p, dir: 0, raw: r1, local: local, remote: Addr(addr)}
	sv := &Conn{p: p, dir: 1, raw: r2, local: Addr(addr), remote: local}
	p.c1, p.c2 = r1, r2
	lk.pairs = append(lk.pairs, p)
	n.open += 2
	n.emitLocked(Event{Kind: "dial", From: h.name, To: to})
	// A dial costs one round trip on a latency-faulted link (the
	// handshake analogue): two one-way samples, slept before the
	// connection is usable. Wall-clock only, nothing extra is traced —
	// this is what makes dial-per-set latency-bound, so connection
	// reuse shows up as time saved from nothing but a seed. The samples
	// come from the pair's own RNG (not yet shared: the server end is
	// handed off below), keeping every draw deterministic.
	var rtt time.Duration
	if p.latMax > 0 {
		for i := 0; i < 2; i++ {
			d := p.latMin
			if span := p.latMax - p.latMin; span > 0 {
				d += time.Duration(p.latSrc.Uint64n(uint64(span) + 1))
			}
			rtt += d
		}
	}
	n.mu.Unlock()
	if rtt > 0 {
		time.Sleep(rtt)
	}

	// Hand the server end to the listener. The buffer makes this
	// immediate in the common case; a full backlog waits for an accept,
	// bounded by the dial timeout.
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case l.ch <- sv:
		// The listener may have closed (and drained its queue) between
		// the send becoming ready and it winning the select; in that
		// window the queued conn would never be accepted. Closing our
		// own endpoints is safe either way — Close is idempotent, and a
		// drain that pulls the conn later just closes it again.
		select {
		case <-l.done:
			cl.Close()
			sv.Close()
			return nil, fmt.Errorf("simnet: dial %s from %s: connection refused", addr, h.name)
		default:
			return cl, nil
		}
	case <-l.done:
		cl.Close()
		sv.Close()
		return nil, fmt.Errorf("simnet: dial %s from %s: connection refused", addr, h.name)
	case <-expired:
		cl.Close()
		sv.Close()
		return nil, fmt.Errorf("simnet: dial %s from %s: timeout", addr, h.name)
	}
}

// listener is a simnet net.Listener: a queue of server-side conn ends.
type listener struct {
	n    *Network
	addr Addr
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		// Drain conns that were queued before the close raced in, so
		// their dialers fail instead of hanging on a half-open pipe.
		for {
			select {
			case c := <-l.ch:
				c.Close()
			default:
				return nil, fmt.Errorf("simnet: accept %s: %w", l.addr, net.ErrClosed)
			}
		}
	}
}

// Close implements net.Listener. Queued, never-accepted connections are
// closed; established ones are untouched.
func (l *listener) Close() error {
	l.once.Do(func() {
		l.n.mu.Lock()
		delete(l.n.listeners, string(l.addr))
		l.n.mu.Unlock()
		close(l.done)
		for {
			select {
			case c := <-l.ch:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.addr }

// pair is the state shared by a connection's two endpoints: the fault
// configuration frozen at dial time, the byte/chunk accounting, and the
// cut flag that makes fault-severed connections fail deterministically.
// Per-direction state is indexed by the writing end: 0 for the dialer,
// 1 for the listener.
type pair struct {
	n     *Network
	key   linkKey
	id    uint64
	hosts [2]string // dialer, listener

	latMin, latMax time.Duration
	bps            int64
	latSrc         *rng.Source

	mu       sync.Mutex
	bytes    int64    // both directions, for cut offsets not tied to one stream
	sent     [2]int64 // per direction
	writes   [2][]int // chunk sizes per direction
	dropAt   int64    // cut when sent[dropDir] crosses this; -1 = none
	dropDir  int
	flipAt   int64 // invert [flipAt, flipAt+flipLen) of stream flipDir on delivery; -1 = none
	flipDir  int
	flipLen  int
	isCut    bool
	cutErr   error
	openEnds int // endpoints not yet closed; 0 = dead, exempt from link faults
	c1, c2   net.Conn
}

// dirFrom returns the direction a host writes in: the listener's when
// it is the listener and not also the dialer, the dialer's otherwise.
func (p *pair) dirFrom(host string) int {
	if host == p.hosts[1] && host != p.hosts[0] {
		return 1
	}
	return 0
}

// alive reports whether either endpoint is still open.
func (p *pair) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.openEnds > 0 && !p.isCut
}

// cut severs the connection: every subsequent (and every currently
// blocked) operation on either endpoint fails with the same canonical
// error. The event is emitted before the pipes close, so a driver
// blocked on this connection observes it only after the event is on
// record.
func (p *pair) cut(reason string) {
	p.mu.Lock()
	if p.isCut {
		p.mu.Unlock()
		return
	}
	p.isCut = true
	offset := p.bytes
	p.cutErr = fmt.Errorf("simnet: connection %s--%s cut (%s) at byte offset %d", p.key.a, p.key.b, reason, offset)
	p.mu.Unlock()
	p.n.mu.Lock()
	p.n.emitLocked(Event{Kind: "cut", From: p.key.a, To: p.key.b, Detail: fmt.Sprintf("%s @%dB", reason, offset)})
	p.n.mu.Unlock()
	p.c1.Close()
	p.c2.Close()
}

// hashLink folds a link key into the per-connection RNG seed (FNV-1a).
func hashLink(k linkKey) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, s := range [2]string{k.a, k.b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
		h ^= '|'
		h *= 0x100000001b3
	}
	return h
}

// Conn is one endpoint of a simnet connection. It implements net.Conn;
// deadlines are delegated to the underlying synchronous pipe.
type Conn struct {
	p             *pair
	dir           int // the direction this end writes in (see pair)
	raw           net.Conn
	local, remote Addr
	closeOnce     sync.Once
}

// Read implements net.Conn. After a fault severs the connection, every
// read returns the pair's canonical cut error (never a racy EOF /
// closed-pipe alternative).
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.raw.Read(b)
	if err != nil {
		if cutErr := c.cutError(); cutErr != nil {
			return n, cutErr
		}
	}
	return n, err
}

// Write implements net.Conn: it applies the sampled latency and
// bandwidth delay, delivers to the peer (synchronously — the write
// returns once the peer has consumed the chunk), accounts the bytes,
// and triggers an armed drop-at-offset fault when this direction's
// count crosses it. A write that crosses the offset delivers the bytes
// up to the boundary, then severs the connection and reports a short
// write with the canonical cut error.
func (c *Conn) Write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	if p.isCut {
		err := p.cutErr
		p.mu.Unlock()
		return 0, err
	}
	from, to := p.hosts[c.dir], p.hosts[1-c.dir]
	chunkStart := p.sent[c.dir]
	allowed := len(b)
	willCut := false
	if p.dropAt >= 0 && p.dropDir == c.dir {
		rem := p.dropAt - chunkStart
		if rem <= int64(len(b)) {
			willCut = true
			if rem < 0 {
				rem = 0
			}
			allowed = int(rem)
		}
	}
	// Overlap of this chunk with an armed corruption window: the
	// affected range is inverted at delivery (on a copy — the caller's
	// buffer is never mutated). The window disarms once its end has
	// been crossed; until then it keeps flipping every chunk it
	// touches.
	flipLo, flipHi := 0, 0
	if p.flipAt >= 0 && p.flipDir == c.dir && allowed > 0 {
		lo := p.flipAt - chunkStart
		hi := p.flipAt + int64(p.flipLen) - chunkStart
		if lo < int64(allowed) && hi > 0 {
			if lo < 0 {
				lo = 0
			}
			if hi > int64(allowed) {
				hi = int64(allowed)
			}
			flipLo, flipHi = int(lo), int(hi)
		}
		if p.flipAt+int64(p.flipLen) <= chunkStart+int64(allowed) {
			p.flipAt = -1
		}
	}
	// Reserve the chunk's bytes NOW, atomically with the fault check,
	// so the direction's next write sees this one accounted. Fault
	// offsets count one direction only, so a peer's writes, whenever
	// they land, never move where a fault strikes.
	p.bytes += int64(allowed)
	p.sent[c.dir] += int64(allowed)
	if allowed > 0 {
		p.writes[c.dir] = append(p.writes[c.dir], allowed)
	}
	if willCut {
		// The connection is cut as of this reservation: mark it and put
		// the event on record BEFORE any byte of the chunk is delivered,
		// so even a cut landing exactly on a frame boundary — where the
		// peer receives a complete frame and carries on — is traced
		// before anything downstream of that frame can be. (Emitting
		// after delivery would race the driver's own trace lines.)
		p.isCut = true
		offset := p.sent[c.dir]
		p.cutErr = fmt.Errorf("simnet: connection %s--%s cut (drop-at-offset) at byte offset %d of %s's stream", p.key.a, p.key.b, offset, from)
		p.mu.Unlock()
		p.n.mu.Lock()
		p.n.emitLocked(Event{Kind: "cut", From: from, To: to, Detail: fmt.Sprintf("drop-at-offset @%dB", offset)})
		p.n.mu.Unlock()
		p.mu.Lock()
	}
	if flipHi > flipLo {
		// Like the cut event: on record before any byte of the
		// corrupted chunk is delivered, so the trace orders the fault
		// ahead of everything downstream of it.
		lo, hi := chunkStart+int64(flipLo), chunkStart+int64(flipHi)
		p.mu.Unlock()
		p.n.mu.Lock()
		p.n.emitLocked(Event{Kind: "flip", From: from, To: to, Detail: fmt.Sprintf("@%dB+%d", lo, hi-lo)})
		p.n.mu.Unlock()
		p.mu.Lock()
	}
	var delay time.Duration
	if p.latMax > 0 {
		delay = p.latMin
		if span := p.latMax - p.latMin; span > 0 {
			delay += time.Duration(p.latSrc.Uint64n(uint64(span) + 1))
		}
	}
	if p.bps > 0 && allowed > 0 {
		delay += time.Duration(int64(allowed) * int64(time.Second) / p.bps)
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	var n int
	var err error
	if allowed > 0 {
		buf := b[:allowed]
		if flipHi > flipLo {
			cp := make([]byte, allowed)
			copy(cp, buf)
			for i := flipLo; i < flipHi; i++ {
				cp[i] ^= 0xff
			}
			buf = cp
		}
		n, err = c.raw.Write(buf)
	}
	if willCut && err == nil {
		// Close both ends only after the boundary bytes were consumed.
		p.c1.Close()
		p.c2.Close()
		p.mu.Lock()
		err = p.cutErr
		p.mu.Unlock()
		return n, err
	}
	if err != nil {
		if cutErr := c.cutError(); cutErr != nil {
			return n, cutErr
		}
		return n, err
	}
	if n < len(b) {
		return n, fmt.Errorf("simnet: short write on %s--%s", p.key.a, p.key.b)
	}
	return n, nil
}

// cutError returns the pair's canonical error when the connection has
// been severed by a fault, nil otherwise.
func (c *Conn) cutError() error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if c.p.isCut {
		return c.p.cutErr
	}
	return nil
}

// Close implements net.Conn. Closing one endpoint delivers EOF to the
// peer (normal session teardown); it is idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.raw.Close()
		c.p.mu.Lock()
		c.p.openEnds--
		c.p.mu.Unlock()
		c.p.n.mu.Lock()
		c.p.n.open--
		c.p.n.mu.Unlock()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// The cut error intentionally does not implement net.Error: a severed
// connection is terminal, and the session accept loop's Temporary()
// retry path must not spin on it.
var (
	_ net.Conn     = (*Conn)(nil)
	_ net.Listener = (*listener)(nil)
)

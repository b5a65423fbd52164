package main

// The import seam. Every import of a repro/internal/... package lives in
// this file; the rest of the benchmark sees only its own types. Only
// constructor and run APIs are used — nothing the roadmap plans to
// delete or merge (DisableMux, simnet/scenario, daemon flags,
// cluster.SetMetrics, session.PoolStats, durable.Metrics,
// transport.Collector). Dials, sessions, bytes and writes are counted
// from the outside with the conn, handler and persister wrappers.
//
// internal/rng appears here only as the argument type that the lsh,
// hashx and riblt constructors demand for their public coins in the
// layer replay; no input is drawn from it.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/live"
	"repro/internal/lsh"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/netproto"
	"repro/internal/riblt"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/store/durable"
	"repro/internal/transport"
)

// sutPoints carries a point set of the system's own type through
// benchmark code that must not name it.
type sutPoints struct {
	ps metric.PointSet
	n  int // the count, kept when the points themselves are dropped
}

func wrapPoints(ps metric.PointSet) sutPoints { return sutPoints{ps, len(ps)} }

func (p sutPoints) len() int { return p.n }

// sized forgets the points but keeps their count.
func (p sutPoints) sized() sutPoints { return sutPoints{n: p.n} }

// points converts back to the benchmark's type (sharing coordinates).
func (p sutPoints) points() pointSet {
	out := make(pointSet, len(p.ps))
	for i, q := range p.ps {
		out[i] = q
	}
	return out
}

func toSUT(ps pointSet) metric.PointSet {
	out := make(metric.PointSet, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

func (sp space) sut() metric.Space {
	if sp.norm == "l2" {
		return metric.Grid(sp.delta, sp.dim, metric.L2)
	}
	return metric.Grid(sp.delta, sp.dim, metric.Hamming)
}

// ---------------------------------------------------------------------------
// Observation hooks shared by the wrappers below.

// protoTally is what the handler wrapper saw of one protocol.
type protoTally struct {
	sessions int64
	busyNS   int64 // Run time minus time blocked in Recv
}

// hooks is the benchmark's view into a running system. The counters are
// filled by wrappers installed at the system's public extension points
// (session.Transport, netproto.Resolver, store.Persister, live.Logger),
// and only in the traced run; tr is nil otherwise.
type hooks struct {
	tr  *tracer
	net *netCounters

	// sessParent/sessOp name the span that sessions started now belong
	// to (the reader's or the mesh driver's current span); logParent /
	// logOp the writer's current apply span.
	sessParent, sessOp atomic.Int64
	logParent, logOp   atomic.Int64

	mu          sync.Mutex
	responder   map[string]*protoTally
	recvWaitNS  int64 // handlers blocked in Recv, either side
	payloadBits int64 // protocol payload seen by responders, both directions
	frames      int64 // protocol frames seen by responders, both directions
	liveEMD     int64 // live-emd sessions served
	deltaServed int64 // ... of which took the delta path
	handshakeNS int64 // Dialer.Do entry to initiator Run entry
	handshakes  int64
	logNS       int64 // live.Logger.LogOps
	logRecords  int64
}

func newHooks(tr *tracer) *hooks {
	return &hooks{tr: tr, net: &netCounters{}, responder: make(map[string]*protoTally)}
}

func (h *hooks) tracing() bool { return h.tr != nil }

// reset zeroes every tally (not the open-endpoint gauge); workloads call
// it where the timed phase starts, so set-up traffic is not counted.
func (h *hooks) reset() {
	h.net.dials.Store(0)
	h.net.writes.Store(0)
	h.net.bytes.Store(0)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.responder = make(map[string]*protoTally)
	h.recvWaitNS, h.payloadBits, h.frames = 0, 0, 0
	h.liveEMD, h.deltaServed = 0, 0
	h.handshakeNS, h.handshakes = 0, 0
	h.logNS, h.logRecords = 0, 0
}

// transportFor wraps a transport with the byte and write counters.
func (h *hooks) transportFor(inner dialListener) session.Transport {
	return countingTransport{inner: inner, c: h.net}
}

// timedConn measures what a handler does with its message connection.
type timedConn struct {
	inner  transport.Conn
	tr     *tracer
	span   int
	op     int
	waitNS int64
	bits   int64
	frames int64
}

func (c *timedConn) Send(e *transport.Encoder) error {
	c.bits += e.Bits()
	c.frames++
	return c.inner.Send(e)
}

func (c *timedConn) Recv() (*transport.Decoder, error) {
	start := time.Now()
	d, err := c.inner.Recv()
	end := time.Now()
	c.waitNS += int64(end.Sub(start))
	c.tr.add("wait.recv", c.span, c.op, start, end)
	if err == nil {
		c.bits += int64(d.Remaining()) * 8
		c.frames++
	}
	return d, err
}

// Stats keeps transport.ConnStats working through the wrapper.
func (c *timedConn) Stats() transport.Stats {
	st, _ := transport.ConnStats(c.inner)
	return st
}

// tracedHandler spans one side of one session.
type tracedHandler struct {
	netproto.Handler
	h       *hooks
	side    string    // "responder" or "initiator"
	doStart time.Time // initiator only: when Dialer.Do was entered
}

func (t tracedHandler) Run(conn transport.Conn) error {
	h := t.h
	entered := time.Now()
	proto := t.Handler.Proto().String()
	parent, op := int(h.sessParent.Load()), int(h.sessOp.Load())
	id := h.tr.begin("netproto."+t.side+"."+proto, parent, op)
	tc := &timedConn{inner: conn, tr: h.tr, span: id, op: op}
	err := t.Handler.Run(tc)
	h.tr.end(id)
	busy := int64(time.Since(entered)) - tc.waitNS

	h.mu.Lock()
	defer h.mu.Unlock()
	h.recvWaitNS += tc.waitNS
	if t.side == "initiator" {
		h.handshakeNS += int64(entered.Sub(t.doStart))
		h.handshakes++
		return err
	}
	tally := h.responder[proto]
	if tally == nil {
		tally = &protoTally{}
		h.responder[proto] = tally
	}
	tally.sessions++
	tally.busyNS += busy
	h.payloadBits += tc.bits
	h.frames += tc.frames
	if s, ok := t.Handler.(*netproto.LiveEMDSender); ok {
		h.liveEMD++
		if s.DeltaServed {
			h.deltaServed++
		}
	}
	return err
}

// wrapResolver makes every responder handler a tracedHandler.
func (h *hooks) wrapResolver(inner netproto.Resolver) netproto.Resolver {
	return func(set string, proto netproto.Proto, peerRole netproto.Role) (func() netproto.Handler, bool) {
		f, ok := inner(set, proto, peerRole)
		if f == nil {
			return nil, ok
		}
		return func() netproto.Handler { return tracedHandler{Handler: f(), h: h, side: "responder"} }, ok
	}
}

// tracedPersister times the write-ahead logger a durable store hands to
// each set.
type tracedPersister struct {
	inner store.Persister
	h     *hooks
}

func (p tracedPersister) OnCreate(name string, cfg live.Config, initial metric.PointSet) (live.Logger, error) {
	lg, err := p.inner.OnCreate(name, cfg, initial)
	if err != nil || lg == nil {
		return lg, err
	}
	return tracedLogger{lg, p.h}, nil
}

func (p tracedPersister) OnDrop(name string) { p.inner.OnDrop(name) }

type tracedLogger struct {
	inner live.Logger
	h     *hooks
}

func (l tracedLogger) LogOps(epoch uint64, ops []live.Op) error {
	start := time.Now()
	err := l.inner.LogOps(epoch, ops)
	end := time.Now()
	l.h.tr.add("durable.log", int(l.h.logParent.Load()), int(l.h.logOp.Load()), start, end)
	l.h.mu.Lock()
	l.h.logNS += int64(end.Sub(start))
	l.h.logRecords++
	l.h.mu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// emd-oneshot

type sutEMD struct {
	params emd.Params
	inst   []struct{ sa, sb metric.PointSet }
}

func newSutEMD(sp space, n, k int, d1, d2 float64, inst []emdInstance) *sutEMD {
	s := &sutEMD{params: emd.Params{Space: sp.sut(), N: n, K: k, D1: d1, D2: d2}}
	for _, in := range inst {
		s.inst = append(s.inst, struct{ sa, sb metric.PointSet }{toSUT(in.sa), toSUT(in.sb)})
	}
	return s
}

type emdOpResult struct {
	failed        bool
	sprime        sutPoints
	bits          int64
	rounds        int
	levels, funcs int
}

func emdOp(res emd.Result) emdOpResult {
	return emdOpResult{
		failed: res.Failed, sprime: wrapPoints(res.SPrime),
		bits: res.Stats.TotalBits(), rounds: res.Stats.Rounds,
		levels: res.Levels, funcs: res.Funcs,
	}
}

// reconcile is the op: Algorithm 1 end to end on instance i.
func (s *sutEMD) reconcile(i int, seed uint64) (emdOpResult, error) {
	p := s.params
	p.Seed = seed
	res, err := emd.Reconcile(p, s.inst[i].sa, s.inst[i].sb)
	return emdOp(res), err
}

// reconcileTraced runs the same protocol through the four public calls
// emd.Reconcile is made of, with a span around each.
func (s *sutEMD) reconcileTraced(i int, seed uint64, tr *tracer, parent, op int) (emdOpResult, error) {
	p := s.params
	p.Seed = seed
	id := tr.begin("emd.build", parent, op)
	sk, err := emd.BuildSketch(p, s.inst[i].sa)
	tr.end(id)
	if err != nil {
		return emdOpResult{}, err
	}
	id = tr.begin("emd.encode", parent, op)
	msg := sk.Encode()
	tr.end(id)
	id = tr.begin("emd.decode", parent, op)
	rk, err := emd.DecodeSketch(p, msg)
	tr.end(id)
	if err != nil {
		return emdOpResult{}, err
	}
	id = tr.begin("emd.apply", parent, op)
	res, err := rk.Apply(s.inst[i].sb)
	tr.end(id)
	out := emdOp(res)
	out.bits, out.rounds = int64(len(msg))*8, 1
	return out, err
}

// ratio is EMD(SA, S'B) / max(EMD_k(SA, SB), 1) on instance i.
func (s *sutEMD) ratio(i int, sprime sutPoints) float64 {
	in, sp := s.inst[i], s.params.Space
	return matching.EMD(sp, in.sa, sprime.ps) / math.Max(matching.EMDk(sp, in.sa, in.sb, s.params.K), 1)
}

// ---------------------------------------------------------------------------
// gap-oneshot

type sutGap struct {
	params gap.Params
	sa, sb metric.PointSet
}

func newSutGap(sp space, n int, r1, r2 float64, in gapInstance) *sutGap {
	s := &sutGap{
		params: gap.Params{Space: sp.sut(), N: n, R1: r1, R2: r2},
		sa:     toSUT(in.sa), sb: toSUT(in.sb),
	}
	// With the default of 6 doublings about one reconcile in 6000 gives up
	// at HEAD ("setsets: reconciliation failed after max retries": the
	// strata estimate comes out near zero for some public coins, and six
	// doublings from 8 never reach the ~1000 keys that really differ). A
	// benchmark op must not fail, so the retry budget is raised; the rare
	// op then shows as extra rounds and bits instead of an error.
	s.params.SetSets.MaxRetries = 12
	return s
}

type gapOpResult struct {
	ta, sprime sutPoints
	bits       int64
	rounds     int
}

// reconcile is the op: the 4-round Theorem 4.2 protocol end to end.
func (s *sutGap) reconcile(seed uint64) (gapOpResult, error) {
	p := s.params
	p.Seed = seed
	res, err := gap.Reconcile(p, s.sa, s.sb)
	return gapOpResult{wrapPoints(res.TA), wrapPoints(res.SPrime), res.Stats.TotalBits(), res.Stats.Rounds}, err
}

// reconcileTraced runs both parties over a pipe with a span each; time
// blocked on the peer is recorded as wait spans beneath them.
func (s *sutGap) reconcileTraced(seed uint64, tr *tracer, parent, op int) (gapOpResult, error) {
	p := s.params
	p.Seed = seed
	aPipe, bPipe := transport.NewPipe()
	type bobOut struct {
		res gap.Result
		err error
	}
	done := make(chan bobOut, 1)
	go func() {
		id := tr.begin("gap.bob", parent, op)
		res, err := gap.RunBob(p, &timedConn{inner: bPipe, tr: tr, span: id, op: op}, s.sb)
		tr.end(id)
		bPipe.Close()
		done <- bobOut{res, err}
	}()
	id := tr.begin("gap.alice", parent, op)
	_, aErr := gap.RunAlice(p, &timedConn{inner: aPipe, tr: tr, span: id, op: op}, s.sa)
	tr.end(id)
	aPipe.Close()
	b := <-done
	if err := errors.Join(aErr, b.err); err != nil {
		return gapOpResult{}, err
	}
	st := aPipe.Stats()
	return gapOpResult{wrapPoints(b.res.TA), wrapPoints(b.res.SPrime), st.TotalBits(), st.Rounds}, nil
}

// ---------------------------------------------------------------------------
// churn-serve

type churnConfig struct {
	sp          space
	capacity, k int
	dir         string
}

const churnSetName = "churn"

func (c churnConfig) emdParams() emd.Params {
	return emd.DefaultParams(c.sp.sut(), c.capacity, c.k, configSeed)
}

func (c churnConfig) durableOptions() durable.Options {
	return durable.Options{Fsync: durable.FsyncBatch} // SnapshotEvery: the default
}

// sutChurn is one durable live set served over loopback TCP, plus the
// returning client that reconciles against it.
type sutChurn struct {
	h      *hooks
	dur    *durable.Store
	set    *live.Set
	srv    *session.Server
	dialer session.Dialer
	params emd.Params
	view   metric.PointSet // the client's own points
	cache  *netproto.EMDCache
}

func openSutChurn(cfg churnConfig, initial, clientView pointSet, h *hooks) (*sutChurn, error) {
	dur, err := durable.Open(cfg.dir, cfg.durableOptions())
	if err != nil {
		return nil, err
	}
	st := store.New()
	if h.tracing() {
		st.SetPersister(tracedPersister{dur, h})
	} else {
		st.SetPersister(dur)
	}
	params := cfg.emdParams()
	set, err := st.Create(churnSetName, live.Config{EMD: &params}, toSUT(initial))
	if err != nil {
		dur.Crash()
		return nil, err
	}
	res := netproto.StoreResolver(st)
	if h.tracing() {
		res = h.wrapResolver(res)
	}
	tp := h.transportFor(loopback{})
	srv := session.NewServer(session.Config{Resolver: res, Transport: tp})
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dur.Crash()
		return nil, err
	}
	return &sutChurn{
		h: h, dur: dur, set: set, srv: srv,
		dialer: session.Dialer{Addr: l.Addr().String(), Set: churnSetName, Transport: tp},
		params: params, view: toSUT(clientView), cache: &netproto.EMDCache{},
	}, nil
}

// apply commits one replace batch; in the traced run it is spanned as
// live.apply with the logger's time beneath it.
func (c *sutChurn) apply(b replaceBatch, op int) error {
	id := c.h.tr.begin("live.apply", noSpan, op)
	c.h.logParent.Store(int64(id))
	c.h.logOp.Store(int64(op))
	err := c.set.ApplyBatch([]live.Op{{Remove: true, Point: b.remove}, {Point: b.add}})
	c.h.tr.end(id)
	return err
}

type sessionResult struct {
	usedDelta bool
	failed    bool
	sprimeLen int
}

// session is the op: one live-emd session of the returning client.
func (c *sutChurn) session(parent, op int) (sessionResult, error) {
	recv := netproto.NewLiveEMDReceiver(c.params, c.view, c.cache)
	var hd netproto.Handler = recv
	id := c.h.tr.begin("session.do", parent, op)
	if c.h.tracing() {
		c.h.sessParent.Store(int64(id))
		c.h.sessOp.Store(int64(op))
		hd = tracedHandler{Handler: recv, h: c.h, side: "initiator", doStart: time.Now()}
	}
	_, err := c.dialer.Do(hd)
	c.h.tr.end(id)
	return sessionResult{recv.UsedDelta, recv.Result.Failed, len(recv.Result.SPrime)}, err
}

// fingerprint identifies the set's current content.
func (c *sutChurn) fingerprint() uint64 { return c.set.Snapshot().EMDFingerprint }

// crash stops serving and abandons the durable store without draining,
// leaving on disk what a process kill would.
func (c *sutChurn) crash() error {
	err := c.srv.Close()
	c.dur.Crash()
	return err
}

type recoverResult struct {
	fingerprint      uint64
	replayed         int
	openNS, replayNS int64
}

// sutRecover reopens the data directory and rebuilds the set from its
// snapshot and journal, then abandons the store again.
func sutRecover(cfg churnConfig) (recoverResult, error) {
	var r recoverResult
	start := time.Now()
	dur, err := durable.Open(cfg.dir, cfg.durableOptions())
	if err != nil {
		return r, err
	}
	defer dur.Crash()
	opened := time.Now()
	st := store.New()
	stats, err := dur.Recover(st)
	if err != nil {
		return r, err
	}
	r.openNS, r.replayNS = int64(opened.Sub(start)), int64(time.Since(opened))
	r.replayed = stats.Replayed
	set, ok := st.Get(churnSetName)
	if !ok {
		return r, fmt.Errorf("recovered store has no set %q", churnSetName)
	}
	r.fingerprint = set.Snapshot().EMDFingerprint
	return r, nil
}

// ---------------------------------------------------------------------------
// mesh-churn / mesh-rtt

type meshConfig struct {
	sp          space
	nodes, sets int
	capacity, k int
	emdEvery    int           // every emdEvery-th set maintains EMD beside Sync
	latency     time.Duration // > 0: simnet with this delay per write; 0: loopback TCP
}

func meshSetName(i int) string { return fmt.Sprintf("set-%02d", i) }

type sutMesh struct {
	h     *hooks
	cfg   meshConfig
	nodes []*cluster.Node
}

func openSutMesh(cfg meshConfig, base []pointSet, h *hooks) (*sutMesh, error) {
	m := &sutMesh{h: h, cfg: cfg}
	var vnet *simnet.Network
	network := "tcp"
	if cfg.latency > 0 {
		vnet = simnet.New(configSeed)
		network = "sim"
		for a := 0; a < cfg.nodes; a++ {
			for b := a + 1; b < cfg.nodes; b++ {
				vnet.SetLatency(meshHost(a), meshHost(b), cfg.latency, cfg.latency)
			}
		}
	}
	addrs := make([]string, cfg.nodes)
	for i := 0; i < cfg.nodes; i++ {
		st := store.New()
		for s := 0; s < cfg.sets; s++ {
			lc := live.Config{Sync: &live.SyncConfig{Seed: configSeed}}
			if s%cfg.emdEvery == 0 {
				p := cfg.emdParams(s)
				lc.EMD = &p
			}
			if _, err := st.Create(meshSetName(s), lc, toSUT(base[s])); err != nil {
				m.close()
				return nil, err
			}
		}
		var inner dialListener = loopback{}
		addr := "127.0.0.1:0"
		if vnet != nil {
			inner, addr = vnet.Host(meshHost(i)), meshHost(i)+":1"
		}
		nc := cluster.Config{
			Store: st, Network: network, Interval: -1, Seed: configSeed + uint64(i) + 1000,
			Transport: h.transportFor(inner),
		}
		if h.tracing() {
			nc.WrapResolver = h.wrapResolver
		}
		n, err := cluster.New(nc)
		if err != nil {
			m.close()
			return nil, err
		}
		m.nodes = append(m.nodes, n)
		l, err := n.Start(addr)
		if err != nil {
			m.close()
			return nil, err
		}
		addrs[i] = l.Addr().String()
	}
	for i, n := range m.nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		n.SetPeers(peers)
	}
	return m, nil
}

func meshHost(i int) string { return fmt.Sprintf("n%d", i) }

// add plants fresh points into one set on one node, as one epoch.
func (m *sutMesh) add(node, set int, pts pointSet, op int) error {
	ls, ok := m.nodes[node].Store().Get(meshSetName(set))
	if !ok {
		return fmt.Errorf("node %d lost %s", node, meshSetName(set))
	}
	ops := make([]live.Op, len(pts))
	for i, p := range pts {
		ops[i] = live.Op{Point: p}
	}
	id := m.h.tr.begin("live.apply", noSpan, op)
	err := ls.ApplyBatch(ops)
	m.h.tr.end(id)
	return err
}

// round drives one anti-entropy round on every node in index order,
// then waits until every responder has applied what it received.
func (m *sutMesh) round(parent, op int) error {
	var first error
	for _, n := range m.nodes {
		id := m.h.tr.begin("cluster.round", parent, op)
		m.h.sessParent.Store(int64(id))
		m.h.sessOp.Store(int64(op))
		if _, err := n.ReconcileOnce(); err != nil && first == nil {
			first = err
		}
		m.h.tr.end(id)
	}
	for _, n := range m.nodes {
		n.Quiesce()
	}
	return first
}

// converged reports whether every set's ID fingerprint agrees across
// all nodes.
func (m *sutMesh) converged() bool {
	for s := 0; s < m.cfg.sets; s++ {
		var want uint64
		for i, n := range m.nodes {
			ls, ok := n.Store().Get(meshSetName(s))
			if !ok {
				return false
			}
			if fp := ls.IDFingerprint(); i == 0 {
				want = fp
			} else if fp != want {
				return false
			}
		}
	}
	return true
}

func (m *sutMesh) close() error {
	var errs []error
	for _, n := range m.nodes {
		errs = append(errs, n.Close(5*time.Second))
	}
	m.nodes = nil
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// Layer replay: time the lower layers on inputs captured from a
// workload, at the shapes the workload's parameters imply.

// emdShape mirrors how emd derives its plan from Params (the MLSH
// family and width, the number of functions s, the per-level prefix
// lengths and the RIBLT geometry), so the replay can call lsh, hashx and
// riblt with the same shapes through their public constructors.
// replayEMD checks s and the level count against what emd itself
// reports, so a change to the derivation cannot drift unnoticed.
type emdShape struct {
	family lsh.Family
	s      int
	prefix []int
	cells  int
	cfg    riblt.Config
}

func shapeOf(p emd.Params) (emdShape, error) {
	p.ApplyDefaults()
	need := math.Min(p.Space.Diameter(), p.D2)
	var m lsh.MLSH
	switch p.Space.Norm {
	case metric.Hamming:
		w := math.Max(24*2*p.D2/float64(p.K), need/0.79)
		m = lsh.HammingMLSH(p.Space, math.Max(w, float64(p.Space.Dim)))
	case metric.L2:
		w := math.Max(24*2*math.Sqrt(2/math.Pi)*p.D2/float64(p.K), need/0.99)
		m = lsh.L2MLSH(p.Space, w)
	default:
		return emdShape{}, fmt.Errorf("replay: no shape for norm %v", p.Space.Norm)
	}
	t := int(math.Ceil(math.Log2(p.D2/p.D1))) + 1
	s := max(int(math.Ceil(float64(p.K)/(8*p.D1*math.Log(1/m.P)))), 1)
	prefix := make([]int, t)
	for i := range prefix {
		n := int(math.Round(math.Pow(2, float64(i)) * float64(s) * p.D1 / p.D2))
		prefix[i] = min(max(n, 1), s)
	}
	cells := p.CellsPerLevel
	if cells == 0 {
		cells = 4 * p.Q * p.Q * p.K
	}
	return emdShape{
		family: m.Family, s: s, prefix: prefix, cells: cells,
		cfg: riblt.Config{
			Cells: cells, Q: p.Q, Dim: p.Space.Dim, Delta: p.Space.Delta,
			KeyBits: p.KeyBits, MaxItems: 2*p.N + 2, Seed: p.Seed | 1,
		},
	}, nil
}

// emdReplay is what replaying the EMD stack's lower layers measured.
type emdReplay struct {
	lshNSPerPoint   float64
	funcsPerPoint   float64
	hashxNSPerPoint float64
	hashxEvals      float64
	ribltInsertNS   float64
	ribltPeelUS     float64
	ribltPeelFail   float64
	ribltCellBits   float64
	buildMS         float64
	encodeMS        float64
	decodeMS        float64
	applyMS         float64
	msgBits         float64
	levels          float64
	pstable         bool
	capturedFrame   []byte // one encoded message, for the transport replay
}

// replayEMD times lsh, hashx and riblt on the points of one EMD
// reconciliation (Alice's set a against Bob's set b under params p), and
// the four emd calls themselves, `reps` times each.
func replayEMD(p emd.Params, sa, sb metric.PointSet, reps int) (emdReplay, error) {
	var out emdReplay
	p.ApplyDefaults()
	sh, err := shapeOf(p)
	if err != nil {
		return out, err
	}
	out.pstable = p.Space.Norm == metric.L2

	// The four emd calls, on the workload's own sets.
	var msg []byte
	var res emd.Result
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sk, err := emd.BuildSketch(p, sa)
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		msg = sk.Encode()
		t2 := time.Now()
		rk, err := emd.DecodeSketch(p, msg)
		if err != nil {
			return out, err
		}
		t3 := time.Now()
		if res, err = rk.Apply(sb); err != nil {
			return out, err
		}
		t4 := time.Now()
		out.buildMS += ms(t1.Sub(t0))
		out.encodeMS += ms(t2.Sub(t1))
		out.decodeMS += ms(t3.Sub(t2))
		out.applyMS += ms(t4.Sub(t3))
	}
	n := float64(reps)
	out.buildMS, out.encodeMS, out.decodeMS, out.applyMS = out.buildMS/n, out.encodeMS/n, out.decodeMS/n, out.applyMS/n
	out.msgBits, out.levels = float64(len(msg))*8, float64(res.Levels)
	out.capturedFrame = msg
	if res.Funcs != sh.s || res.Levels != len(sh.prefix) {
		return out, fmt.Errorf("replay: emd plan has s=%d t=%d, replay shape s=%d t=%d — shapeOf drifted from emd",
			res.Funcs, res.Levels, sh.s, len(sh.prefix))
	}

	// lsh: all s functions on every point; hashx: every level prefix.
	src := rng.New(p.Seed | 1)
	vec := lsh.DrawVector(sh.family, src.Split(), sh.s)
	kh := hashx.NewKeyHasher(src.Split(), p.KeyBits)
	vals := make([][]uint64, len(sa)+len(sb))
	all := append(append(metric.PointSet(nil), sa...), sb...)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, pt := range all {
			if vals[i] == nil {
				vals[i] = make([]uint64, sh.s)
			}
			vec.HashPrefixInto(vals[i], pt, sh.s)
		}
	}
	out.lshNSPerPoint = float64(time.Since(t0)) / float64(reps*len(all))
	out.funcsPerPoint = float64(sh.s)
	keys := make([][]uint64, len(all))
	for i := range keys {
		keys[i] = make([]uint64, len(sh.prefix))
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range all {
			kh.HashPrefixes(keys[i], vals[i], sh.prefix)
		}
	}
	out.hashxNSPerPoint = float64(time.Since(t0)) / float64(reps*len(all))
	out.hashxEvals = float64(sh.s + len(sh.prefix)) // one field step per value, one pairwise map per level

	// riblt, per level: insert Alice's pairs (the table she ships, whose
	// encoded size is what crosses the wire), delete Bob's, peel.
	peelSrc := rng.New(p.Seed ^ 0x9e3779b97f4a7c15)
	var insertNS, peelNS time.Duration
	var inserts, peels, fails int
	var cellBits float64
	for r := 0; r < reps; r++ {
		for lvl := range sh.prefix {
			tbl := riblt.New(sh.cfg)
			t0 = time.Now()
			for i, pt := range sa {
				tbl.Insert(keys[i][lvl], pt)
			}
			insertNS += time.Since(t0)
			inserts += len(sa)
			e := transport.NewEncoder()
			tbl.Encode(e)
			cellBits += float64(e.Bits()) / float64(sh.cells)
			for i, pt := range sb {
				tbl.Delete(keys[len(sa)+i][lvl], pt)
			}
			t0 = time.Now()
			_, err := tbl.Peel(peelSrc)
			peelNS += time.Since(t0)
			peels++
			if err != nil {
				fails++
			}
		}
	}
	out.ribltInsertNS = float64(insertNS) / float64(inserts)
	out.ribltPeelUS = float64(peelNS) / 1e3 / float64(peels)
	out.ribltPeelFail = float64(fails) / float64(peels)
	out.ribltCellBits = cellBits / float64(peels)
	return out, nil
}

// ibltReplay is what replaying the IBLT layer measured.
type ibltReplay struct {
	insertNSPerKey float64
	decodeUS       float64
	retryShare     float64
	strataCodecUS  float64
	mixNSPerKey    float64
}

// replayIBLT times the ID-reconciliation substrate on a workload's
// shape: two key sets of the given size differing in diff keys, tables
// sized the way the protocols size them (iblt.CellsForDiff), `reps`
// fresh seeds. A decode that stalls is what costs the protocols a retry
// round trip.
func replayIBLT(seed uint64, setSize, diff, reps int) ibltReplay {
	var out ibltReplay
	const q = 3
	ids := newRand(seed, streamSeeds)
	common := make([]uint64, setSize)
	for i := range common {
		common[i] = ids.Uint64()
	}
	mine := append(append([]uint64(nil), common...), make([]uint64, diff/2)...)
	theirs := append(append([]uint64(nil), common...), make([]uint64, diff-diff/2)...)
	for i := setSize; i < len(mine); i++ {
		mine[i] = ids.Uint64()
	}
	for i := setSize; i < len(theirs); i++ {
		theirs[i] = ids.Uint64()
	}
	cells := iblt.CellsForDiff(max(diff, 1), q)
	var insertNS, decodeNS, codecNS, mixNS time.Duration
	var stalls int
	scratch := make([]uint64, len(mine))
	for r := 0; r < reps; r++ {
		tseed := seed + uint64(r)*2 + 1
		a := iblt.New(cells, q, tseed)
		t0 := time.Now()
		a.InsertAll(mine)
		insertNS += time.Since(t0)
		b := iblt.New(cells, q, tseed)
		b.InsertAll(theirs)
		t0 = time.Now()
		if err := a.Subtract(b); err != nil {
			stalls++
		} else if _, _, err := a.Decode(); err != nil {
			stalls++
		}
		decodeNS += time.Since(t0)

		st := iblt.NewStrataFromKeys(80, tseed, mine, 1)
		t0 = time.Now()
		e := transport.NewEncoder()
		st.Encode(e)
		data, _ := e.Pack()
		iblt.DecodeStrata(transport.NewDecoder(data), tseed) //nolint:errcheck // bytes just encoded; only the time matters
		codecNS += time.Since(t0)
		transport.Recycle(e, data)

		mx := hashx.MixerFromSeed(tseed)
		t0 = time.Now()
		mx.HashInto(scratch, mine)
		mixNS += time.Since(t0)
	}
	n := float64(reps)
	out.insertNSPerKey = float64(insertNS) / n / float64(len(mine))
	out.decodeUS = float64(decodeNS) / 1e3 / n
	out.retryShare = float64(stalls) / n
	out.strataCodecUS = float64(codecNS) / 1e3 / n
	out.mixNSPerKey = float64(mixNS) / n / float64(len(mine))
	return out
}

// gapReplay is what replaying the gap keyer measured.
type gapReplay struct {
	payloadNSPerPoint float64
	coordNSPerPoint   float64
	funcsPerPoint     float64
}

// replayGap times gap.Keyer.Payload on the workload's points, and the
// coordinate-sampling family alone at the keyer's function count
// (h entries of m functions each, as gap derives them).
func replayGap(p gap.Params, sp metric.PointSet, reps int) (gapReplay, error) {
	var out gapReplay
	p.ApplyDefaults()
	ky, err := gap.NewKeyer(p)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, pt := range sp {
			ky.Payload(pt)
		}
	}
	out.payloadNSPerPoint = float64(time.Since(t0)) / float64(reps*len(sp))

	p2 := lsh.HammingParams(p.Space, p.R1, p.R2).P2
	m := max(int(math.Ceil(math.Log(0.5)/math.Log(p2))), 1)
	h := p.HFactor * int(math.Ceil(math.Log2(float64(p.N)+2)))
	vec := lsh.DrawVector(lsh.NewCoordSampling(p.Space, float64(p.Space.Dim)), rng.New(p.Seed|1), h*m)
	dst := make([]uint64, h*m)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, pt := range sp {
			vec.HashPrefixInto(dst, pt, h*m)
		}
	}
	out.coordNSPerPoint = float64(time.Since(t0)) / float64(reps*len(sp))
	out.funcsPerPoint = float64(h * m)
	return out, nil
}

// codecReplay is what replaying the bit codec measured.
type codecReplay struct {
	encNSPerKbit, decNSPerKbit, allocsPerFrame float64
}

// replayCodec pushes a captured frame through transport.Encoder and
// Decoder as unaligned 61-bit words, the packer's general path.
func replayCodec(frame []byte, reps int) codecReplay {
	var out codecReplay
	if len(frame) < 8 {
		return out
	}
	words := make([]uint64, len(frame)/8)
	for i := range words {
		for _, c := range frame[i*8 : i*8+8] {
			words[i] = words[i]<<8 | uint64(c)
		}
		words[i] >>= 3
	}
	kbits := float64(len(words)*61) / 1000
	var encNS, decNS time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		e := transport.NewEncoder()
		e.WriteBool(true) // knock the stream off byte alignment
		for _, w := range words {
			e.WriteBits(w, 61)
		}
		data, _ := e.Pack()
		encNS += time.Since(t0)
		t0 = time.Now()
		d := transport.NewDecoder(data)
		d.ReadBool() //nolint:errcheck // the frame was just written
		for range words {
			d.ReadBits(61) //nolint:errcheck
		}
		decNS += time.Since(t0)
		transport.Recycle(e, data)
	}
	runtime.ReadMemStats(&after)
	out.encNSPerKbit = float64(encNS) / float64(reps) / kbits
	out.decNSPerKbit = float64(decNS) / float64(reps) / kbits
	out.allocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(reps)
	return out
}

// liveReplay is what replaying the live-set layer measured.
type liveReplay struct {
	newSetMS   float64
	snapshotUS float64
}

// replayLive builds a scratch in-memory copy of a workload's EMD set
// (store.Create, the call that dominates set-up) and times the first
// Snapshot after each of `reps` mutations.
func replayLive(p emd.Params, withSync bool, initial pointSet, batches []replaceBatch) (liveReplay, error) {
	var out liveReplay
	cfg := live.Config{EMD: &p}
	if withSync {
		cfg.Sync = &live.SyncConfig{Seed: p.Seed | 1}
	}
	t0 := time.Now()
	set, err := store.New().Create("replay", cfg, toSUT(initial))
	if err != nil {
		return out, err
	}
	out.newSetMS = ms(time.Since(t0))
	set.Snapshot()
	var snapNS time.Duration
	for _, b := range batches {
		if err := set.ApplyBatch([]live.Op{{Remove: true, Point: b.remove}, {Point: b.add}}); err != nil {
			return out, err
		}
		t0 = time.Now()
		set.Snapshot()
		snapNS += time.Since(t0)
	}
	if len(batches) > 0 {
		out.snapshotUS = float64(snapNS) / 1e3 / float64(len(batches))
	}
	return out, nil
}

// The replay entry points, per workload handle, so no other file has to
// name a parameter type of the system.

func (s *sutEMD) replay(i int, seed uint64, reps int) (emdReplay, error) {
	p := s.params
	p.Seed = seed
	return replayEMD(p, s.inst[i].sa, s.inst[i].sb, reps)
}

func (s *sutGap) replay(seed uint64, reps int) (gapReplay, error) {
	p := s.params
	p.Seed = seed
	return replayGap(p, s.sa, reps)
}

func (c churnConfig) replayEMD(a, b pointSet, reps int) (emdReplay, error) {
	return replayEMD(c.emdParams(), toSUT(a), toSUT(b), reps)
}

func (c churnConfig) replayLive(initial pointSet, batches []replaceBatch) (liveReplay, error) {
	return replayLive(c.emdParams(), false, initial, batches)
}

// emdParams is the configuration of the mesh's EMD-maintaining sets, as
// the daemon derives it for its catalog: no prior knowledge of D1, D2.
func (c meshConfig) emdParams(set int) emd.Params {
	return emd.DefaultParams(c.sp.sut(), c.capacity, c.k, configSeed+uint64(set)+9)
}

func (c meshConfig) replayEMD(set int, a, b pointSet, reps int) (emdReplay, error) {
	return replayEMD(c.emdParams(set), toSUT(a), toSUT(b), reps)
}

func (c meshConfig) replayLive(set int, initial pointSet, batches []replaceBatch) (liveReplay, error) {
	return replayLive(c.emdParams(set), true, initial, batches)
}

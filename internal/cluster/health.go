package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Peer health ledger: a per-peer EWMA failure score driving a
// three-state circuit breaker, plus a per-peer EWMA RTT that replaces
// the single global session deadline.
//
// Every outbound session outcome is reported here. Successes decay the
// score; timeouts and cut errors add healthFailureWeight; a corruption
// verdict (a repair payload that failed verify-before-merge) adds
// healthCorruptWeight. Crossing healthProbationScore marks the peer
// probation (observed, still probed); crossing healthQuarantineScore
// quarantines it for a span of rounds, during which pickFromLocked's
// power-of-d draw and the placement owner-pool probing skip it — the
// peer stays in the gossip member table, it just stops receiving this
// node's anti-entropy budget. When the span expires the breaker goes
// half-open: the peer is eligible again, one probe decides. A clean
// session demotes it to probation (and onward to healthy as successes
// accumulate); another failure or corruption re-quarantines it with the
// span doubled, capped at quarantineSpanCap× the base.
//
// The weights are chosen so that two corruption verdicts convict even
// with an interleaved success (1.0, ×0.5 decay +1.0 = 1.5 ≥ 1.25; with
// a success between: 1.0 → 0.5 → 1.25), while transient failures need
// four in a row (0.7 → 1.05 → 1.225 → 1.3125) — a crashed peer is
// quarantined eventually, a corrupting peer almost immediately.
const (
	// healthDecay multiplies the score on every report (EWMA memory).
	healthDecay = 0.5
	// healthFailureWeight is added per timeout / transport failure.
	healthFailureWeight = 0.7
	// healthCorruptWeight is added per corruption verdict.
	healthCorruptWeight = 1.0
	// healthProbationScore enters probation at or above.
	healthProbationScore = 0.75
	// healthQuarantineScore enters quarantine at or above.
	healthQuarantineScore = 1.25
	// defaultQuarantineRounds is the node's base quarantine span, in
	// reconciliation rounds.
	defaultQuarantineRounds = 16
	// quarantineSpanCap bounds repeat-offender span doubling, as a
	// multiple of the base span.
	quarantineSpanCap = 8
	// healthRTTAlpha is the EWMA weight of the newest RTT sample.
	healthRTTAlpha = 0.2
	// rttDeadlineMult × EWMA RTT is the adaptive session deadline.
	rttDeadlineMult = 8
	// rttDeadlineFloor keeps the adaptive deadline sane on fast links:
	// a 200µs loopback RTT must not produce a 1.6ms deadline that a GC
	// pause would trip.
	rttDeadlineFloor = 5 * time.Second
)

// PeerState is the circuit-breaker state of one peer in the ledger.
type PeerState int

const (
	// PeerHealthy: full participant in peer selection.
	PeerHealthy PeerState = iota
	// PeerProbation: elevated failure score, still probed.
	PeerProbation
	// PeerQuarantined: skipped by peer selection until the span
	// expires (then half-open: one session decides).
	PeerQuarantined
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerProbation:
		return "probation"
	case PeerQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
}

// PeerHealth is a snapshot of one peer's ledger entry.
type PeerHealth struct {
	State PeerState
	// Score is the EWMA failure score (see the weight constants).
	Score float64
	// RTT is the EWMA session round-trip time (0 before any sample).
	RTT time.Duration
	// QuarantineLeft is rounds remaining in the current span (0 when
	// not quarantined, or when quarantined and half-open).
	QuarantineLeft int
	// Successes / Failures / Corruptions / Quarantines are lifetime
	// outcome counters.
	Successes   uint64
	Failures    uint64
	Corruptions uint64
	Quarantines uint64
}

// peerEntry is the mutable ledger line for one peer address.
type peerEntry struct {
	state       PeerState
	score       float64
	rttNS       float64 // EWMA, 0 = no sample yet
	left        int     // quarantine rounds remaining
	span        int     // last applied span, for doubling
	successes   uint64
	failures    uint64
	corruptions uint64
	quarantines uint64
}

// ledger is the node's peer health table. Its mutex is a leaf lock:
// methods never call back into the node, so it is safe to use both
// under n.mu (peer selection) and outside it (session outcomes).
type ledger struct {
	mu sync.Mutex
	// base is the quarantine span in rounds.
	base  int
	peers map[string]*peerEntry
}

func newLedger(baseRounds int) *ledger {
	return &ledger{base: baseRounds, peers: make(map[string]*peerEntry)}
}

func (l *ledger) entry(addr string) *peerEntry {
	e := l.peers[addr]
	if e == nil {
		e = &peerEntry{}
		l.peers[addr] = e
	}
	return e
}

// reportSuccess records a clean session: the score decays, the RTT
// EWMA absorbs the sample, and a half-open quarantined peer is demoted
// to probation (one clean session is evidence, not absolution — only
// further successes walk it back to healthy).
func (l *ledger) reportSuccess(addr string, rtt time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(addr)
	e.successes++
	e.score *= healthDecay
	if rtt > 0 {
		if e.rttNS == 0 {
			e.rttNS = float64(rtt.Nanoseconds())
		} else {
			e.rttNS = (1-healthRTTAlpha)*e.rttNS + healthRTTAlpha*float64(rtt.Nanoseconds())
		}
	}
	switch e.state {
	case PeerQuarantined:
		e.state = PeerProbation
		e.left = 0
		if e.score < healthProbationScore {
			e.score = healthProbationScore
		}
	case PeerProbation:
		if e.score < healthProbationScore {
			e.state = PeerHealthy
			e.span = 0
		}
	}
}

// reportFailure records a timeout / transport failure.
func (l *ledger) reportFailure(addr string) { l.bump(addr, healthFailureWeight, false) }

// reportCorruption records a verify-before-merge rejection — the
// strongest possible evidence against a peer.
func (l *ledger) reportCorruption(addr string) { l.bump(addr, healthCorruptWeight, true) }

func (l *ledger) bump(addr string, weight float64, corrupt bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(addr)
	if corrupt {
		e.corruptions++
	} else {
		e.failures++
	}
	e.score = e.score*healthDecay + weight
	switch e.state {
	case PeerQuarantined:
		if e.left == 0 {
			// Half-open probe failed: re-quarantine, span doubled.
			l.quarantineLocked(e)
		}
		// Still serving a span: accumulate only.
	default:
		switch {
		case e.score >= healthQuarantineScore:
			l.quarantineLocked(e)
		case e.score >= healthProbationScore:
			e.state = PeerProbation
		}
	}
}

// quarantineLocked arms (or re-arms, doubled) the quarantine span.
// Caller holds l.mu.
func (l *ledger) quarantineLocked(e *peerEntry) {
	if e.span == 0 {
		e.span = l.base
	} else {
		e.span = min(e.span*2, l.base*quarantineSpanCap)
	}
	e.left = e.span
	e.state = PeerQuarantined
	e.quarantines++
}

// tick advances quarantine spans by one round; a span reaching zero
// leaves the peer quarantined but half-open (eligible again — the next
// session outcome decides).
func (l *ledger) tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.peers {
		if e.state == PeerQuarantined && e.left > 0 {
			e.left--
		}
	}
}

// eligible filters quarantined peers out of a candidate pool. The
// original slice is returned untouched when nothing is filtered — the
// healthy path must be allocation- and behavior-identical to a node
// without the ledger. If every candidate is quarantined the full pool
// is returned: total exclusion would isolate this node on exactly the
// rounds where it most needs a peer.
func (l *ledger) eligible(pool []string) []string {
	if len(pool) == 0 {
		return pool
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	skip := 0
	for _, addr := range pool {
		if e := l.peers[addr]; e != nil && e.state == PeerQuarantined && e.left > 0 {
			skip++
		}
	}
	if skip == 0 || skip == len(pool) {
		return pool
	}
	out := make([]string, 0, len(pool)-skip)
	for _, addr := range pool {
		if e := l.peers[addr]; e != nil && e.state == PeerQuarantined && e.left > 0 {
			continue
		}
		out = append(out, addr)
	}
	return out
}

// deadline derives the peer's adaptive session deadline from its EWMA
// RTT: rttDeadlineMult× the EWMA, floored (a fast link must not get a
// hair-trigger deadline) and capped at the configured fallback (the
// adaptive value only ever tightens the global bound).
func (l *ledger) deadline(addr string, fallback time.Duration) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.peers[addr]
	if e == nil || e.rttNS == 0 {
		return fallback
	}
	d := time.Duration(e.rttNS * rttDeadlineMult)
	if d < rttDeadlineFloor {
		d = rttDeadlineFloor
	}
	if fallback > 0 && d > fallback {
		d = fallback
	}
	return d
}

// snapshot returns a copy of every peer's health line.
func (l *ledger) snapshot() map[string]PeerHealth {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]PeerHealth, len(l.peers))
	for addr, e := range l.peers {
		out[addr] = PeerHealth{
			State:          e.state,
			Score:          e.score,
			RTT:            time.Duration(e.rttNS),
			QuarantineLeft: e.left,
			Successes:      e.successes,
			Failures:       e.failures,
			Corruptions:    e.corruptions,
			Quarantines:    e.quarantines,
		}
	}
	return out
}

// summary formats a one-line fleet health digest for logs and traces.
func (l *ledger) summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var healthy, probation, quarantined int
	var corrupt uint64
	quarantinedAddrs := make([]string, 0, 2)
	for addr, e := range l.peers {
		corrupt += e.corruptions
		switch e.state {
		case PeerQuarantined:
			quarantined++
			quarantinedAddrs = append(quarantinedAddrs, addr)
		case PeerProbation:
			probation++
		default:
			healthy++
		}
	}
	s := fmt.Sprintf("peers=%d healthy=%d probation=%d quarantined=%d corrupt-verdicts=%d",
		len(l.peers), healthy, probation, quarantined, corrupt)
	if quarantined > 0 {
		sort.Strings(quarantinedAddrs)
		s += " [" + strings.Join(quarantinedAddrs, " ") + "]"
	}
	return s
}

// PeerHealths returns a snapshot of the node's peer health ledger,
// keyed by peer address.
func (n *Node) PeerHealths() map[string]PeerHealth { return n.health.snapshot() }

// HealthSummary returns a one-line digest of the ledger (peer counts
// per state, total corruption verdicts, quarantined addresses).
func (n *Node) HealthSummary() string { return n.health.summary() }

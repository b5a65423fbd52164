package cluster

import (
	"strings"
	"testing"
	"time"
)

// Two corruption verdicts must convict even with an interleaved clean
// session — a corrupting peer cannot stay eligible by also serving
// honest traffic.
func TestLedgerCorruptionConvictsFast(t *testing.T) {
	l := newLedger(4)
	l.reportCorruption("p")
	if st := l.snapshot()["p"]; st.State != PeerProbation {
		t.Fatalf("after 1 corruption state = %v, want probation", st.State)
	}
	l.reportSuccess("p", time.Millisecond)
	l.reportCorruption("p")
	st := l.snapshot()["p"]
	if st.State != PeerQuarantined {
		t.Fatalf("after corrupt,success,corrupt state = %v score %.3f, want quarantined", st.State, st.Score)
	}
	if st.Corruptions != 2 || st.Quarantines != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

// Transient failures need four in a row: a flaky link reaches probation
// quickly but quarantine only if it keeps failing.
func TestLedgerFailuresConvictSlower(t *testing.T) {
	l := newLedger(4)
	for i := 0; i < 3; i++ {
		l.reportFailure("p")
	}
	if st := l.snapshot()["p"]; st.State != PeerProbation {
		t.Fatalf("after 3 failures state = %v score %.3f, want probation", st.State, st.Score)
	}
	l.reportFailure("p")
	if st := l.snapshot()["p"]; st.State != PeerQuarantined {
		t.Fatalf("after 4 failures state = %v score %.3f, want quarantined", st.State, st.Score)
	}
}

// The breaker goes half-open when the span expires: a clean probe walks
// the peer back through probation to healthy, a failed probe
// re-quarantines with the span doubled (capped).
func TestLedgerHalfOpenProbe(t *testing.T) {
	l := newLedger(4)
	l.reportCorruption("p")
	l.reportCorruption("p")
	for i := 0; i < 4; i++ {
		l.tick()
	}
	if st := l.snapshot()["p"]; st.State != PeerQuarantined || st.QuarantineLeft != 0 {
		t.Fatalf("post-span state = %v left %d, want quarantined half-open", st.State, st.QuarantineLeft)
	}
	// Half-open probe fails: span doubles.
	l.reportFailure("p")
	if st := l.snapshot()["p"]; st.State != PeerQuarantined || st.QuarantineLeft != 8 || st.Quarantines != 2 {
		t.Fatalf("after failed probe: %+v, want re-quarantined span 8", st)
	}
	for i := 0; i < 8; i++ {
		l.tick()
	}
	// Half-open probe succeeds: probation, then clean sessions decay the
	// score back to healthy.
	l.reportSuccess("p", time.Millisecond)
	if st := l.snapshot()["p"]; st.State != PeerProbation {
		t.Fatalf("after clean probe state = %v, want probation", st.State)
	}
	for i := 0; i < 4; i++ {
		l.reportSuccess("p", time.Millisecond)
	}
	if st := l.snapshot()["p"]; st.State != PeerHealthy {
		t.Fatalf("after clean streak state = %v score %.3f, want healthy", st.State, st.Score)
	}
	// Span doubling is capped at quarantineSpanCap x base.
	e := l.entry("p")
	e.span = 4 * quarantineSpanCap
	l.mu.Lock()
	l.quarantineLocked(e)
	l.mu.Unlock()
	if e.span != 4*quarantineSpanCap {
		t.Fatalf("span grew past the cap: %d", e.span)
	}
}

// eligible must return the original slice untouched when nothing is
// quarantined (the healthy path stays allocation-identical), filter
// quarantined peers otherwise, and fall back to the full pool rather
// than isolate the node when everything is quarantined.
func TestLedgerEligible(t *testing.T) {
	l := newLedger(4)
	pool := []string{"a", "b", "c"}
	if got := l.eligible(pool); len(got) != 3 || &got[0] != &pool[0] {
		t.Fatalf("clean pool was copied or filtered: %v", got)
	}
	l.reportCorruption("b")
	l.reportCorruption("b")
	got := l.eligible(pool)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("eligible = %v, want [a c]", got)
	}
	// Half-open (span expired) makes the peer eligible again.
	for i := 0; i < 4; i++ {
		l.tick()
	}
	if got := l.eligible(pool); len(got) != 3 {
		t.Fatalf("half-open peer still filtered: %v", got)
	}
	// All quarantined: the full pool comes back.
	for _, p := range pool {
		l.reportCorruption(p)
		l.reportCorruption(p)
	}
	if got := l.eligible(pool); len(got) != 3 {
		t.Fatalf("fully-quarantined pool collapsed to %v", got)
	}
}

// deadline: fallback before any sample, then mult x EWMA RTT, floored
// for fast links and capped at the configured fallback.
func TestLedgerDeadline(t *testing.T) {
	l := newLedger(4)
	if d := l.deadline("p", time.Minute); d != time.Minute {
		t.Fatalf("no-sample deadline = %v, want fallback", d)
	}
	l.reportSuccess("p", 100*time.Microsecond)
	if d := l.deadline("p", time.Minute); d != rttDeadlineFloor {
		t.Fatalf("fast-link deadline = %v, want floor %v", d, rttDeadlineFloor)
	}
	l2 := newLedger(4)
	l2.reportSuccess("q", 2*time.Second)
	if d := l2.deadline("q", time.Minute); d != 16*time.Second {
		t.Fatalf("deadline = %v, want 8x 2s", d)
	}
	if d := l2.deadline("q", 10*time.Second); d != 10*time.Second {
		t.Fatalf("deadline exceeded its cap: %v", d)
	}
}

func TestLedgerSummary(t *testing.T) {
	l := newLedger(4)
	l.reportSuccess("a", time.Millisecond)
	l.reportCorruption("b")
	l.reportCorruption("b")
	s := l.summary()
	for _, want := range []string{"peers=2", "healthy=1", "quarantined=1", "corrupt-verdicts=2", "[b]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

package transport

import "testing"

// sendBits sends one message of exactly n bits from one end of a pipe
// and receives it at the other.
func sendBits(t *testing.T, from, to *PipeConn, n int) {
	t.Helper()
	e := NewEncoder()
	for i := 0; i < n; i++ {
		e.WriteBits(1, 1)
	}
	if err := from.Send(e); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := to.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
}

func TestStatsMaxPayloadTracking(t *testing.T) {
	a, b := NewPipe()
	if got := a.Stats().MaxPayload(); got != 0 {
		t.Fatalf("fresh pipe MaxPayload = %d, want 0", got)
	}
	sendBits(t, a, b, 17)
	sendBits(t, b, a, 300)
	sendBits(t, a, b, 5)
	st := a.Stats()
	if got := st.MaxPayload(); got != 300 {
		t.Fatalf("MaxPayload = %d, want 300 (largest single message, not last)", got)
	}
	if st.TotalBits() != 17+300+5 {
		t.Fatalf("TotalBits = %d, want %d", st.TotalBits(), 17+300+5)
	}
}

func TestObservePayloadKeepsMaximum(t *testing.T) {
	var s Stats
	for _, bits := range []int64{16, 4096, 0, 512} {
		s.ObservePayload(bits)
	}
	if got := s.MaxPayload(); got != 4096 {
		t.Fatalf("ObservePayload max = %d, want 4096", got)
	}
}

func TestStatsAddMergesMaxPayloadByMaximum(t *testing.T) {
	a := Stats{Rounds: 2, BitsAtoB: 10, maxPayload: 8}
	b := Stats{Rounds: 1, BitsBtoA: 20, maxPayload: 64}
	sum := a.Add(b)
	if sum.Rounds != 3 || sum.BitsAtoB != 10 || sum.BitsBtoA != 20 {
		t.Fatalf("Add sums wrong: %+v", sum)
	}
	if got := sum.MaxPayload(); got != 64 {
		t.Fatalf("Add MaxPayload = %d, want max(8,64)=64, not the sum", got)
	}
	// Commutes: folding the other way keeps the same maximum.
	if got := b.Add(a).MaxPayload(); got != 64 {
		t.Fatalf("reverse Add MaxPayload = %d, want 64", got)
	}
	// A zero operand is the identity for the maximum.
	if got := sum.Add(Stats{}).MaxPayload(); got != 64 {
		t.Fatalf("Add zero MaxPayload = %d, want 64", got)
	}
}

func TestCollectorMergesMaxPayload(t *testing.T) {
	var col Collector
	col.Add(Stats{Rounds: 1, maxPayload: 40})
	col.Add(Stats{Rounds: 1, maxPayload: 1024})
	col.Add(Stats{Rounds: 1, maxPayload: 7})
	total, n := col.Total()
	if n != 3 {
		t.Fatalf("tallies = %d, want 3", n)
	}
	if got := total.MaxPayload(); got != 1024 {
		t.Fatalf("collector MaxPayload = %d, want 1024", got)
	}
}

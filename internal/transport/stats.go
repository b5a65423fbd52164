package transport

import "sync"

// Add returns the component-wise sum of s and o. Per-session tallies
// roll up into aggregate server totals with it; maxPayload combines by
// maximum, since the largest single message across sessions is still the
// largest single message of the aggregate.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.BitsAtoB += o.BitsAtoB
	s.BitsBtoA += o.BitsBtoA
	s.MsgsAtoB += o.MsgsAtoB
	s.MsgsBtoA += o.MsgsBtoA
	if o.maxPayload > s.maxPayload {
		s.maxPayload = o.maxPayload
	}
	return s
}

// ObservePayload records one message of the given size in payload bits,
// keeping the running maximum. Every Conn that counts its own traffic
// (PipeConn here, netproto's wires) calls it once per message.
func (s *Stats) ObservePayload(bits int64) {
	if bits > s.maxPayload {
		s.maxPayload = bits
	}
}

// MessageStats is the tally of a one-round protocol: a single message
// of the given size, Alice to Bob.
func MessageStats(bits int64) Stats {
	return Stats{Rounds: 1, BitsAtoB: bits, MsgsAtoB: 1, maxPayload: bits}
}

// MaxPayload returns the largest single message carried, in payload
// bits (0 before any message). A Conn tracks it per Send; Add folds
// tallies together by maximum, so an aggregate's MaxPayload is the
// largest single message any contributing session carried — the figure
// that bounds peak frame-buffer memory per connection.
func (s Stats) MaxPayload() int64 { return s.maxPayload }

// Collector accumulates Stats from concurrently completing sessions. The
// zero value is ready to use; all methods are safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	total Stats
	n     int
}

// Add folds one session's tally into the aggregate.
func (c *Collector) Add(s Stats) {
	c.mu.Lock()
	c.total = c.total.Add(s)
	c.n++
	c.mu.Unlock()
}

// Total returns the aggregate traffic and the number of tallies folded
// in so far.
func (c *Collector) Total() (Stats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, c.n
}

package gap

import (
	"repro/internal/metric"
	"repro/internal/transport"
)

// Keyer is the plan of the general (Theorem 4.2) protocol, derived
// once for a live set and shared by every session it serves: RunAlice
// keys the session's points through it, and Payload computes one
// element's encoded key. The Keyer is immutable after construction and
// safe for concurrent use.
type Keyer struct {
	pl *plan
}

// NewKeyer derives the shared plan for the general (Theorem 4.2)
// protocol. The params must equal the params every session is run with,
// digest included.
func NewKeyer(p Params) (*Keyer, error) {
	pl, err := newPlan(p)
	if err != nil {
		return nil, err
	}
	return &Keyer{pl: pl}, nil
}

// Payload computes one element's encoded key — the setsets child
// payload that goes on the wire (h·m LSH evaluations plus h pairwise
// hashes). It allocates the payload and one scratch array.
func (k *Keyer) Payload(pt metric.Point) []byte {
	ky := k.pl.ky
	scratch := make([]uint64, ky.h+ky.m)
	ky.keyInto(scratch[:ky.h], scratch[ky.h:], pt)
	return encodeKey(scratch[:ky.h], ky.bits)
}

// RunAlice executes Alice's side of the protocol over conn with the
// keyer's plan, keying sa for this session.
func (k *Keyer) RunAlice(conn transport.Conn, sa metric.PointSet) (AliceReport, error) {
	return runAlice(k.pl, conn, sa)
}

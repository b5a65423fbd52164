package gap

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/transport"
)

// Keyer exposes the per-element key construction of the Gap protocol
// for incremental maintenance: each element's key vector depends only
// on the element and the shared public coins, so a live set can compute
// a point's key payload once at insertion and serve any number of
// sessions from the cache. The Keyer is immutable after construction
// and safe for concurrent use.
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
// hashes, the per-mutation cost of live maintenance). It allocates the
// payload and one scratch array.
func (k *Keyer) Payload(pt metric.Point) []byte {
	ky := k.pl.ky
	scratch := make([]uint64, ky.h+ky.m)
	ky.keyInto(scratch[:ky.h], scratch[ky.h:], pt)
	return encodeKey(scratch[:ky.h], ky.bits)
}

// Payloads computes every element's payload (the from-scratch path
// live sets use at construction). The payloads share one backing array.
func (k *Keyer) Payloads(pts metric.PointSet) [][]byte {
	return encodeKeys(k.pl.keyBatch(pts), k.pl.h, k.pl.ky.bits)
}

// RunAlice executes Alice's side of the protocol over conn using cached
// payloads (aligned with sa) instead of recomputing keys — the live
// serving path. Payloads must have been produced by this Keyer.
func (k *Keyer) RunAlice(conn transport.Conn, sa metric.PointSet, payloads [][]byte) (AliceReport, error) {
	p, h, size := k.pl.params, k.pl.h, k.pl.payloadBytes()
	if len(sa) != len(payloads) {
		return AliceReport{}, fmt.Errorf("gap: %d elements, %d cached payloads", len(sa), len(payloads))
	}
	if len(sa) > p.N {
		return AliceReport{}, fmt.Errorf("gap: |SA|=%d exceeds N=%d", len(sa), p.N)
	}
	keys := make([]uint64, len(payloads)*h)
	for i, pay := range payloads {
		if len(pay) != size {
			return AliceReport{}, fmt.Errorf("gap: cached payload %d has %d bytes, want %d", i, len(pay), size)
		}
		decodeKey(keys[i*h:(i+1)*h], pay, k.pl.ky.bits)
	}
	return runAliceKeyed(k.pl, conn, sa, keys, payloads)
}

package metric

import (
	"fmt"
	"math"

	"repro/internal/transport"
)

// MaxEncodedDim bounds the dimension DecodePoint accepts. Repair's point
// lists and the durable journal share it, so any point a peer can ship
// can also be journaled and replayed.
const MaxEncodedDim = 1 << 16

// Key returns the point's membership-map key: the raw little-endian
// bytes of its coordinates, equal for two points exactly when the points
// are equal.
func (p Point) Key() string {
	b := make([]byte, 4*len(p))
	for i, c := range p {
		b[4*i] = byte(c)
		b[4*i+1] = byte(c >> 8)
		b[4*i+2] = byte(c >> 16)
		b[4*i+3] = byte(c >> 24)
	}
	return string(b)
}

// Encode writes the point self-describing: a uvarint dimension, then
// each coordinate as a zig-zag varint. Self-describing keeps the codec
// independent of any one space definition — a sync-only live set has no
// declared space at all.
func (p Point) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(len(p)))
	for _, c := range p {
		e.WriteVarint(int64(c))
	}
}

// DecodePoint reads a point Encode wrote. The dimension is untrusted: it
// is refused above MaxEncodedDim or above the bytes left to read (each
// coordinate costs at least one) before the point is allocated, and so
// is a coordinate outside int32.
func DecodePoint(d *transport.Decoder) (Point, error) {
	dim, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if dim > MaxEncodedDim || dim > uint64(d.Remaining()) {
		return nil, fmt.Errorf("metric: point dimension %d exceeds bound %d or remaining %d bytes", dim, MaxEncodedDim, d.Remaining())
	}
	p := make(Point, dim)
	for i := range p {
		c, err := d.ReadVarint()
		if err != nil {
			return nil, err
		}
		if c < math.MinInt32 || c > math.MaxInt32 {
			return nil, fmt.Errorf("metric: coordinate %d out of int32 range", c)
		}
		p[i] = int32(c)
	}
	return p, nil
}

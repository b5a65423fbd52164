package metric

import (
	"math"
	"testing"

	"repro/internal/transport"
)

// TestPointCodec: a point round-trips through Encode and DecodePoint,
// and the decoder refuses a dimension above MaxEncodedDim or above the
// bytes left, and a coordinate outside int32.
func TestPointCodec(t *testing.T) {
	pts := PointSet{{}, {0}, {1, -1, math.MaxInt32, math.MinInt32}, make(Point, 300)}
	e := transport.NewEncoder()
	for _, p := range pts {
		p.Encode(e)
	}
	data, _ := e.Pack()
	d := transport.NewDecoder(data)
	for i, want := range pts {
		got, err := DecodePoint(d)
		if err != nil || !got.Equal(want) || got.Key() != want.Key() {
			t.Fatalf("point %d: decoded %v (err %v), want %v", i, got, err, want)
		}
	}

	bad := func(write func(e *transport.Encoder)) error {
		e := transport.NewEncoder()
		write(e)
		data, _ := e.Pack()
		_, err := DecodePoint(transport.NewDecoder(append(data, make([]byte, MaxEncodedDim+8)...)))
		return err
	}
	if err := bad(func(e *transport.Encoder) { e.WriteUvarint(MaxEncodedDim + 1) }); err == nil {
		t.Error("accepted a dimension above MaxEncodedDim")
	}
	if err := bad(func(e *transport.Encoder) { e.WriteUvarint(1); e.WriteVarint(math.MaxInt32 + 1) }); err == nil {
		t.Error("accepted a coordinate above int32")
	}
	e = transport.NewEncoder()
	e.WriteUvarint(8)
	short, _ := e.Pack()
	if _, err := DecodePoint(transport.NewDecoder(short)); err == nil {
		t.Error("accepted a dimension the remaining bytes cannot hold")
	}
}

// TestPointKey: keys are equal exactly when points are.
func TestPointKey(t *testing.T) {
	a, b := Point{1, 256, -1}, Point{1, 256, -1}
	if a.Key() != b.Key() {
		t.Fatal("equal points have different keys")
	}
	for _, c := range []Point{{1, 256}, {1, 256, -2}, {256, 1, -1}, {1, 256, -1, 0}} {
		if c.Key() == a.Key() {
			t.Fatalf("%v and %v share a key", c, a)
		}
	}
}

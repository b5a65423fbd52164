package metric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormString(t *testing.T) {
	cases := map[Norm]string{Hamming: "hamming", L1: "l1", L2: "l2", Norm(9): "norm(9)"}
	for n, want := range cases {
		if got := n.String(); got != want {
			t.Errorf("Norm(%d).String() = %q, want %q", int(n), got, want)
		}
	}
}

func TestHammingDistance(t *testing.T) {
	s := HammingCube(4)
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0, 0, 0}, Point{0, 0, 0, 0}, 0},
		{Point{0, 0, 0, 0}, Point{1, 0, 0, 0}, 1},
		{Point{1, 1, 0, 0}, Point{0, 0, 1, 1}, 4},
		{Point{1, 0, 1, 0}, Point{1, 1, 1, 1}, 2},
	}
	for _, c := range cases {
		if got := s.Distance(c.a, c.b); got != c.want {
			t.Errorf("d(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestL1Distance(t *testing.T) {
	s := Grid(100, 3, L1)
	if got := s.Distance(Point{0, 50, 100}, Point{100, 50, 0}); got != 200 {
		t.Errorf("L1 distance = %v, want 200", got)
	}
}

func TestL2Distance(t *testing.T) {
	s := Grid(100, 2, L2)
	if got := s.Distance(Point{0, 0}, Point{3, 4}); got != 5 {
		t.Errorf("L2 distance = %v, want 5", got)
	}
}

func TestDistancePanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	HammingCube(3).Distance(Point{0, 1}, Point{0, 1, 0})
}

func TestMetricAxiomsProperty(t *testing.T) {
	for _, norm := range []Norm{Hamming, L1, L2} {
		s := Grid(255, 6, norm)
		prop := func(av, bv, cv [6]uint8) bool {
			a, b, c := fromBytes(av), fromBytes(bv), fromBytes(cv)
			dab := s.Distance(a, b)
			dba := s.Distance(b, a)
			dac := s.Distance(a, c)
			dcb := s.Distance(c, b)
			if dab != dba { // symmetry
				return false
			}
			if a.Equal(b) != (dab == 0) { // identity of indiscernibles
				return false
			}
			// triangle inequality with float tolerance for L2
			return dab <= dac+dcb+1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("norm %v: %v", norm, err)
		}
	}
}

func fromBytes(v [6]uint8) Point {
	p := make(Point, 6)
	for i, x := range v {
		p[i] = int32(x)
	}
	return p
}

func TestValidate(t *testing.T) {
	if err := Grid(10, 3, L1).Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
	bad := []Space{
		{Delta: 0, Dim: 3, Norm: L1},
		{Delta: 10, Dim: 0, Norm: L1},
		{Delta: 10, Dim: 3, Norm: Norm(42)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid space %+v accepted", s)
		}
	}
}

func TestContains(t *testing.T) {
	s := Grid(10, 2, L1)
	if !s.Contains(Point{0, 10}) {
		t.Error("corner point rejected")
	}
	if s.Contains(Point{0, 11}) {
		t.Error("out-of-range coordinate accepted")
	}
	if s.Contains(Point{-1, 0}) {
		t.Error("negative coordinate accepted")
	}
	if s.Contains(Point{1}) {
		t.Error("wrong dimension accepted")
	}
}

func TestDiameter(t *testing.T) {
	if got := HammingCube(16).Diameter(); got != 16 {
		t.Errorf("Hamming diameter = %v", got)
	}
	if got := Grid(10, 3, L1).Diameter(); got != 30 {
		t.Errorf("L1 diameter = %v", got)
	}
	want := math.Sqrt(3) * 10
	if got := Grid(10, 3, L2).Diameter(); math.Abs(got-want) > 1e-12 {
		t.Errorf("L2 diameter = %v, want %v", got, want)
	}
}

func TestBits(t *testing.T) {
	if got := HammingCube(128).BitsPerCoordinate(); got != 1 {
		t.Errorf("bits per bool coordinate = %d", got)
	}
	if got := HammingCube(128).BitsPerPoint(); got != 128 {
		t.Errorf("bits per 128-bit point = %d", got)
	}
	if got := Grid(255, 4, L2).BitsPerCoordinate(); got != 8 {
		t.Errorf("bits for [255] = %d, want 8", got)
	}
	if got := Grid(256, 4, L2).BitsPerCoordinate(); got != 9 {
		t.Errorf("bits for [256] = %d, want 9", got)
	}
}

func TestClamp(t *testing.T) {
	s := Grid(10, 3, L1)
	in := Point{-5, 5, 15}
	got := s.Clamp(in)
	if !got.Equal(Point{0, 5, 10}) {
		t.Errorf("Clamp(%v) = %v", in, got)
	}
	if !in.Equal(Point{-5, 5, 15}) {
		t.Error("Clamp mutated its input")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases original")
	}
	ps := PointSet{Point{1}, Point{2}}
	ps2 := ps.Clone()
	ps2[0][0] = 50
	if ps[0][0] != 1 {
		t.Error("PointSet.Clone aliases original")
	}
}

// TestPointSetCloneFlat: a clone costs two allocations, shares no
// memory with its source, and appending to one cloned point leaves the
// next unchanged.
func TestPointSetCloneFlat(t *testing.T) {
	ps := PointSet{Point{1, 2, 3}, Point{}, Point{4, 5}, Point{6}}
	if n := testing.AllocsPerRun(20, func() { ps.Clone() }); n != 2 {
		t.Fatalf("PointSet.Clone allocates %v times, want 2", n)
	}
	c := ps.Clone()
	if len(c) != len(ps) {
		t.Fatalf("clone has %d points, want %d", len(c), len(ps))
	}
	for i := range ps {
		if !c[i].Equal(ps[i]) {
			t.Fatalf("point %d: clone %v, source %v", i, c[i], ps[i])
		}
		for j := range c[i] {
			c[i][j] += 100
			if ps[i][j] == c[i][j] {
				t.Fatalf("point %d coordinate %d: clone shares memory with its source", i, j)
			}
		}
	}
	c = ps.Clone()
	c[0] = append(c[0], 99)
	c[1] = append(c[1], 98)
	if !c[2].Equal(Point{4, 5}) || !c[3].Equal(Point{6}) {
		t.Fatalf("appending to cloned points changed their neighbours: %v", c)
	}
	if !ps[0].Equal(Point{1, 2, 3}) || !ps[2].Equal(Point{4, 5}) {
		t.Fatalf("appending to cloned points changed the source: %v", ps)
	}
}

func TestMinDistanceTo(t *testing.T) {
	s := Grid(100, 1, L1)
	ps := PointSet{Point{10}, Point{20}, Point{30}}
	d, i := ps.MinDistanceTo(s, Point{22})
	if d != 2 || i != 1 {
		t.Errorf("MinDistanceTo = (%v,%d), want (2,1)", d, i)
	}
	d, i = (PointSet{}).MinDistanceTo(s, Point{0})
	if !math.IsInf(d, 1) || i != -1 {
		t.Errorf("empty set: got (%v,%d)", d, i)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2}).String(); got != "(1,2)" {
		t.Errorf("String = %q", got)
	}
	long := make(Point, 20)
	s := long.String()
	if len(s) == 0 || s[0] != '(' {
		t.Errorf("long point string malformed: %q", s)
	}
}

func TestSpaceString(t *testing.T) {
	if got := Grid(7, 3, L2).String(); got != "[7]^3,l2" {
		t.Errorf("Space.String() = %q", got)
	}
}

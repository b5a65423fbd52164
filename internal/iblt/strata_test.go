package iblt

import (
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/transport"
)

func strataKeys(n int, seed uint64) []uint64 {
	src := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = src.Uint64()
	}
	return keys
}

// TestStrataAllocs: an estimator is one flat layout whose seed
// generators live on the stack, so building one over 256 keys and
// decoding its encoding each cost a few allocations, none per level;
// Estimate, against a peer holding 200 of the 256 keys, subtracts every
// level into one reused table and counts its peels through one Scratch,
// listing no keys.
func TestStrataAllocs(t *testing.T) {
	const seed = 11
	keys := strataKeys(256, 1)
	peer := NewStrataFromKeys(StrataCells, seed, keys[:200])
	s := NewStrataFromKeys(StrataCells, seed, keys)
	e := transport.NewEncoder()
	s.Encode(e)
	data, _ := e.Pack()
	data = append([]byte(nil), data...)
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"NewStrataFromKeys", 4, func() { NewStrataFromKeys(StrataCells, seed, keys) }},
		{"DecodeStrata", 4, func() {
			if _, err := DecodeStrata(transport.NewDecoder(data), seed); err != nil {
				t.Fatal(err)
			}
		}},
		{"Estimate", 8, func() {
			if _, err := s.Estimate(peer); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		allocs := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %.0f allocations (budget %.0f)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("%s took %.0f allocations, want at most %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestDecodeStrataRefusesMixedGeometry: every level of an estimator has
// the geometry its cells-per-level header lays out. A level of another
// size is refused at decode time, not left for Estimate to trip over.
func TestDecodeStrataRefusesMixedGeometry(t *testing.T) {
	const seed = 4
	src := rng.New(seed)
	src.Uint64() // the stratum-assignment mixer
	e := transport.NewEncoder()
	e.WriteUvarint(StrataCells)
	for lvl := range StrataLevels {
		cells := StrataCells
		if lvl == 7 {
			cells = 2 * StrataCells
		}
		New(cells, 3, src.Uint64()).Encode(e)
	}
	data, _ := e.Pack()
	_, err := DecodeStrata(transport.NewDecoder(data), seed)
	if err == nil || !strings.Contains(err.Error(), "level 7") {
		t.Fatalf("err = %v, want level 7's geometry refused", err)
	}
}

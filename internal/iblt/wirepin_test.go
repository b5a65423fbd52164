package iblt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/rng"
	"repro/internal/transport"
)

// TestEncodeWirePinned pins the SHA-256 of Table, Strata and KVTable
// encodings written after a 3-bit prefix, so every cell field crosses
// byte boundaries. Each hash covers the payload and then its bit count.
// The values were captured once and must never change without a
// wire-version bump.
func TestEncodeWirePinned(t *testing.T) {
	src := rng.New(0x71)
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = src.Uint64()
	}
	kv := NewKV(48, 3, 13, 0x73)
	for i, k := range keys[:20] {
		val := make([]byte, 13)
		for j := range val {
			val[j] = byte(src.Uint64())
		}
		if i%5 == 0 {
			kv.Delete(k, val)
		} else {
			kv.Insert(k, val)
		}
	}
	cases := []struct {
		name string
		enc  func(*transport.Encoder)
		want string
	}{
		{"table", NewFromKeys(60, 3, 0x72, keys).Encode, "20860c1657a4f5e2c1fffe97ae967b97ec013a64129c41614fa40b6b66d1e069"},
		{"strata", NewStrataFromKeys(16, 0x74, keys).Encode, "ecd3639025ccf7e33a7d5f9518bcd48928339265d488bd3b27ed19ba8cccb3f9"},
		{"kv", kv.Encode, "6bef34c0370c1431d9291ea68ad22247e35bd49c633fe7e3e7551c7db1ae5b48"},
	}
	for _, c := range cases {
		e := transport.NewEncoder()
		e.WriteBits(0b101, 3)
		c.enc(e)
		data, bits := e.Pack()
		sum := sha256.Sum256(binary.BigEndian.AppendUint64(data, uint64(bits)))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d-bit encoding SHA-256 %s, pinned %s", c.name, bits, got, c.want)
		}
	}
}

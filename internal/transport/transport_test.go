package transport

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestBitsRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.WriteBits(0b101, 3)
	e.WriteBits(0xdeadbeef, 32)
	e.WriteBits(1, 1)
	e.WriteBits(0, 64)
	wantBits := int64(3 + 32 + 1 + 64)
	if e.Bits() != wantBits {
		t.Fatalf("Bits() = %d, want %d", e.Bits(), wantBits)
	}
	data, bits := e.finish()
	if bits != wantBits {
		t.Fatalf("finish bits = %d", bits)
	}
	d := NewDecoder(data)
	if v, _ := d.ReadBits(3); v != 0b101 {
		t.Fatalf("3-bit field = %b", v)
	}
	if v, _ := d.ReadBits(32); v != 0xdeadbeef {
		t.Fatalf("32-bit field = %x", v)
	}
	if v, _ := d.ReadBits(1); v != 1 {
		t.Fatalf("flag = %d", v)
	}
	if v, _ := d.ReadBits(64); v != 0 {
		t.Fatalf("zero field = %d", v)
	}
}

func TestBitsPropertyRoundTrip(t *testing.T) {
	prop := func(vals []uint64, widthsRaw []uint8) bool {
		n := len(vals)
		if len(widthsRaw) < n {
			n = len(widthsRaw)
		}
		widths := make([]uint, n)
		for i := 0; i < n; i++ {
			widths[i] = uint(widthsRaw[i]%64) + 1
		}
		e := NewEncoder()
		for i := 0; i < n; i++ {
			e.WriteBits(vals[i], widths[i])
		}
		data, _ := e.finish()
		d := NewDecoder(data)
		for i := 0; i < n; i++ {
			want := vals[i]
			if widths[i] < 64 {
				want &= 1<<widths[i] - 1
			}
			got, err := d.ReadBits(widths[i])
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	prop := func(v uint64) bool {
		e := NewEncoder()
		e.WriteUvarint(v)
		data, _ := e.finish()
		got, err := NewDecoder(data).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	prop := func(v int64) bool {
		e := NewEncoder()
		e.WriteVarint(v)
		data, _ := e.finish()
		got, err := NewDecoder(data).ReadVarint()
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, -1, 1, -64, 63, 1 << 40, -(1 << 40), -1 << 63, 1<<63 - 1} {
		e := NewEncoder()
		e.WriteVarint(v)
		data, _ := e.finish()
		got, err := NewDecoder(data).ReadVarint()
		if err != nil || got != v {
			t.Errorf("varint %d round-tripped to %d (%v)", v, got, err)
		}
	}
}

func TestUvarintCost(t *testing.T) {
	// 8 bits per 7 payload bits: small values must stay small.
	e := NewEncoder()
	e.WriteUvarint(5)
	if e.Bits() != 8 {
		t.Errorf("uvarint(5) cost %d bits, want 8", e.Bits())
	}
	e2 := NewEncoder()
	e2.WriteUvarint(1 << 20)
	if e2.Bits() != 24 {
		t.Errorf("uvarint(2^20) cost %d bits, want 24", e2.Bits())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	prop := func(p []byte) bool {
		e := NewEncoder()
		e.WriteBytes(p)
		data, _ := e.finish()
		got, err := NewDecoder(data).ReadBytes()
		if err != nil || len(got) != len(p) {
			return false
		}
		for i := range p {
			if got[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestShortMessage(t *testing.T) {
	d := NewDecoder([]byte{0xff})
	if _, err := d.ReadBits(16); err != ErrShortMessage {
		t.Errorf("ReadBits past end: err = %v", err)
	}
	d2 := NewDecoder(nil)
	if _, err := d2.ReadUvarint(); err == nil {
		t.Error("ReadUvarint on empty payload succeeded")
	}
	// Length prefix larger than remaining payload.
	e := NewEncoder()
	e.WriteUvarint(1000)
	data, _ := e.finish()
	if _, err := NewDecoder(data).ReadBytes(); err == nil {
		t.Error("ReadBytes with bogus length succeeded")
	}
}

func TestChannelAccounting(t *testing.T) {
	a, b := NewPipe()
	for _, m := range []struct {
		from *PipeConn
		bits uint
	}{{a, 10}, {b, 20}, {a, 5}} {
		e := NewEncoder()
		e.WriteBits(0, m.bits)
		if err := m.from.Send(e); err != nil {
			t.Fatal(err)
		}
	}

	s := a.Stats()
	if s.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", s.Rounds)
	}
	if s.BitsAtoB != 15 || s.BitsBtoA != 20 {
		t.Errorf("bits = %d/%d, want 15/20", s.BitsAtoB, s.BitsBtoA)
	}
	if s.TotalBits() != 35 {
		t.Errorf("total = %d", s.TotalBits())
	}
	if s.TotalBytes() != 5 { // ceil(35/8)
		t.Errorf("total bytes = %d, want 5", s.TotalBytes())
	}
	if s.MsgsAtoB != 2 || s.MsgsBtoA != 1 {
		t.Errorf("message counts = %d/%d", s.MsgsAtoB, s.MsgsBtoA)
	}
	if s.MaxPayload() != 20 {
		t.Errorf("max payload = %d, want 20", s.MaxPayload())
	}
}

func TestDirectionString(t *testing.T) {
	if AliceToBob.String() != "alice→bob" || BobToAlice.String() != "bob→alice" {
		t.Error("direction labels wrong")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Rounds: 2, BitsAtoB: 9, BitsBtoA: 7}
	if got := s.String(); got == "" {
		t.Error("empty Stats string")
	}
}

// TestReadUvarintOverflow: ten groups carry 9·7 + 1 = 64 value bits,
// so a 10th group greater than 1 overflows and must be rejected (the
// rule encoding/binary.Uvarint uses) rather than silently truncated to
// the same value as the one valid 10-group encoding of 2^64 − 1.
func TestReadUvarintOverflow(t *testing.T) {
	ff9 := bytes.Repeat([]byte{0xff}, 9)
	if v, err := NewDecoder(append(ff9, 0x01)).ReadUvarint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("9×ff 01 = %#x, %v; want %#x", v, err, uint64(math.MaxUint64))
	}
	for _, last := range []byte{0x02, 0x7f, 0x81, 0xff} {
		if v, err := NewDecoder(append(ff9, last, 0x00)).ReadUvarint(); err == nil {
			t.Fatalf("9×ff %02x decoded to %#x, want an overflow error", last, v)
		}
	}
	e := NewEncoder()
	e.WriteUvarint(math.MaxUint64)
	if got, _ := e.Pack(); !bytes.Equal(got, append(ff9, 0x01)) {
		t.Fatalf("WriteUvarint(2^64-1) = %x", got)
	}
}

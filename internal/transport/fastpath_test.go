package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBitWriter is an independent reference implementation of the wire
// bit format: every value is appended bit by bit (MSB first) to a bool
// slice, then packed. The Encoder's byte-aligned fast paths must produce
// exactly this stream — the golden property every sketch's wire bytes
// rest on.
type refBitWriter struct {
	bits []bool
}

func (r *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		r.bits = append(r.bits, v>>uint(i)&1 == 1)
	}
}

func (r *refBitWriter) writeUvarint(v uint64) {
	for {
		if v < 0x80 {
			r.writeBits(0, 1)
			r.writeBits(v, 7)
			return
		}
		r.writeBits(1, 1)
		r.writeBits(v&0x7f, 7)
		v >>= 7
	}
}

func (r *refBitWriter) writeVarint(v int64) {
	r.writeUvarint(uint64(v<<1) ^ uint64(v>>63))
}

func (r *refBitWriter) writeBytes(p []byte) {
	r.writeUvarint(uint64(len(p)))
	for _, b := range p {
		r.writeBits(uint64(b), 8)
	}
}

func (r *refBitWriter) pack() []byte {
	out := make([]byte, (len(r.bits)+7)/8)
	for i, b := range r.bits {
		if b {
			out[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return out
}

// TestEncoderMatchesBitReference drives the Encoder and the bitwise
// reference through identical randomized scripts — mixing aligned and
// misaligned writes — and requires byte-identical output, then decodes
// the stream back and requires value-identical reads. This pins the
// fast paths (bulk WriteBytes, byte-group varints, aligned ReadBits) to
// the historical bit format.
func TestEncoderMatchesBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		e := NewEncoder()
		var ref refBitWriter
		type op struct {
			kind  int
			v     uint64
			sv    int64
			n     uint
			bytes []byte
		}
		var script []op
		for i := 0; i < 30; i++ {
			o := op{kind: rng.Intn(5)}
			switch o.kind {
			case 0: // WriteBits with random width (often misaligning)
				o.n = uint(1 + rng.Intn(64))
				o.v = rng.Uint64() & (1<<o.n - 1)
				e.WriteBits(o.v, o.n)
				ref.writeBits(o.v, o.n)
			case 1:
				o.v = rng.Uint64() >> uint(rng.Intn(64))
				e.WriteUvarint(o.v)
				ref.writeUvarint(o.v)
			case 2:
				o.sv = int64(rng.Uint64()) >> uint(rng.Intn(64))
				e.WriteVarint(o.sv)
				ref.writeVarint(o.sv)
			case 3:
				o.bytes = make([]byte, rng.Intn(40))
				rng.Read(o.bytes)
				e.WriteBytes(o.bytes)
				ref.writeBytes(o.bytes)
			case 4:
				o.v = rng.Uint64()
				e.WriteUint64(o.v)
				ref.writeBits(o.v, 64)
			}
			script = append(script, o)
		}
		got, bits := e.Pack()
		want := ref.pack()
		if int64(len(ref.bits)) != bits {
			t.Fatalf("trial %d: bit count %d, reference %d", trial, bits, len(ref.bits))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: stream mismatch\n got %x\nwant %x", trial, got, want)
		}
		d := NewDecoder(got)
		for i, o := range script {
			switch o.kind {
			case 0:
				v, err := d.ReadBits(o.n)
				if err != nil || v != o.v {
					t.Fatalf("trial %d op %d: ReadBits = %d, %v; want %d", trial, i, v, err, o.v)
				}
			case 1:
				v, err := d.ReadUvarint()
				if err != nil || v != o.v {
					t.Fatalf("trial %d op %d: ReadUvarint = %d, %v; want %d", trial, i, v, err, o.v)
				}
			case 2:
				v, err := d.ReadVarint()
				if err != nil || v != o.sv {
					t.Fatalf("trial %d op %d: ReadVarint = %d, %v; want %d", trial, i, v, err, o.sv)
				}
			case 3:
				p, err := d.ReadBytes()
				if err != nil || !bytes.Equal(p, o.bytes) {
					t.Fatalf("trial %d op %d: ReadBytes = %x, %v; want %x", trial, i, p, err, o.bytes)
				}
			case 4:
				v, err := d.ReadUint64()
				if err != nil || v != o.v {
					t.Fatalf("trial %d op %d: ReadUint64 = %d, %v; want %d", trial, i, v, err, o.v)
				}
			}
		}
	}
}

// TestReadBytesBorrowAliasing documents the borrow contract: an aligned
// borrow aliases the decoder's backing buffer (no copy), while ReadBytes
// always returns an independent copy.
func TestReadBytesBorrowAliasing(t *testing.T) {
	e := NewEncoder()
	e.WriteBytes([]byte("payload"))
	data, _ := e.Pack()

	d := NewDecoder(data)
	borrowed, err := d.ReadBytesBorrow()
	if err != nil || string(borrowed) != "payload" {
		t.Fatalf("borrow = %q, %v", borrowed, err)
	}
	data[1] ^= 0xff // scribble on the backing frame
	if string(borrowed) == "payload" {
		t.Fatal("aligned borrow did not alias the frame buffer")
	}
	data[1] ^= 0xff

	d = NewDecoder(data)
	copied, err := d.ReadBytes()
	if err != nil || string(copied) != "payload" {
		t.Fatalf("copy = %q, %v", copied, err)
	}
	data[1] ^= 0xff
	if string(copied) != "payload" {
		t.Fatal("ReadBytes result aliases the frame buffer; must be a copy")
	}
}

// TestReadBytesBorrowMisaligned forces a misaligned borrow (a leading
// bool shifts the stream) and checks the fallback still yields the right
// bytes.
func TestReadBytesBorrowMisaligned(t *testing.T) {
	e := NewEncoder()
	e.WriteBool(true)
	e.WriteBytes([]byte{0xaa, 0x55, 0x00, 0xff})
	data, _ := e.Pack()
	d := NewDecoder(data)
	if _, err := d.ReadBool(); err != nil {
		t.Fatal(err)
	}
	p, err := d.ReadBytesBorrow()
	if err != nil || !bytes.Equal(p, []byte{0xaa, 0x55, 0x00, 0xff}) {
		t.Fatalf("misaligned borrow = %x, %v", p, err)
	}
}

// TestReadBytesHugeLengthRejected feeds both byte readers a crafted
// uvarint length near 2^61 — large enough that a naive bits-remaining
// check overflows int64 — and requires a clean ErrShortMessage instead
// of a panic (this is remotely reachable: frame payloads come from
// peers).
func TestReadBytesHugeLengthRejected(t *testing.T) {
	e := NewEncoder()
	e.WriteUvarint(1 << 61)
	data, _ := e.Pack()
	if _, err := NewDecoder(data).ReadBytes(); err != ErrShortMessage {
		t.Fatalf("ReadBytes(huge length) = %v, want ErrShortMessage", err)
	}
	if _, err := NewDecoder(data).ReadBytesBorrow(); err != ErrShortMessage {
		t.Fatalf("ReadBytesBorrow(huge length) = %v, want ErrShortMessage", err)
	}
}

// TestEncoderRecycle checks that a recycled encoder starts clean: bytes
// written after recycling are exactly the new payload, with no residue
// from the previous life.
func TestEncoderRecycle(t *testing.T) {
	e := NewEncoder()
	e.WriteBytes([]byte("first message with some length"))
	data, _ := e.Pack()
	Recycle(e, data)
	e2 := NewEncoder() // may or may not be the same struct; both must work
	e2.WriteUvarint(42)
	got, bits := e2.Pack()
	if bits != 8 || len(got) != 1 || got[0] != 42 {
		t.Fatalf("recycled encoder produced %x (%d bits), want 2a (8 bits)", got, bits)
	}
}

// writeBitString appends the first n bits of the packed string p, one
// bit at a time.
func (r *refBitWriter) writeBitString(p []byte, n int64) {
	for i := int64(0); i < n; i++ {
		r.bits = append(r.bits, p[i/8]>>(7-uint(i%8))&1 == 1)
	}
}

// bitStringCase writes a prefix of the given bit length, then the bit
// string, then a short trailer, through both the Encoder and the
// reference, and returns the encoded payload and the bit offset of
// the string. It fails the test unless the two streams are identical.
func bitStringCase(t testing.TB, prefixBits uint, prefix uint64, p []byte, n int64) ([]byte, int64) {
	t.Helper()
	e := NewEncoder()
	var ref refBitWriter
	e.WriteBits(prefix, prefixBits)
	ref.writeBits(prefix, prefixBits)
	e.WriteBitString(p, n)
	ref.writeBitString(p, n)
	e.WriteBits(0x5, 3)
	ref.writeBits(0x5, 3)
	got, bits := e.Pack()
	if bits != int64(len(ref.bits)) {
		t.Fatalf("prefix %d, %d-bit string: encoder wrote %d bits, reference %d", prefixBits, n, bits, len(ref.bits))
	}
	if want := ref.pack(); !bytes.Equal(got, want) {
		t.Fatalf("prefix %d, %d-bit string: stream mismatch\n got %x\nwant %x", prefixBits, n, got, want)
	}
	return got, int64(prefixBits)
}

// TestBitStringMatchesReference pins WriteBitString to the bitwise
// reference at every prefix alignment and at lengths from 0 bits to
// more than 64 bytes, and checks that ConsumeIfEqual accepts exactly
// the spliced string: it consumes it on a match, rejects a copy with
// any single bit flipped (trailing partial byte included) or a
// truncated stream, and leaves the position unchanged on a reject.
func TestBitStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int64{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 511, 512, 520, 64*8 + 13, 1000}
	for prefixBits := uint(0); prefixBits < 8; prefixBits++ {
		for _, n := range lengths {
			p := make([]byte, (n+7)/8)
			rng.Read(p)
			prefix := rng.Uint64() & (1<<prefixBits - 1)
			data, off := bitStringCase(t, prefixBits, prefix, p, n)

			consume := func(q []byte, buf []byte) (bool, int64) {
				d := NewDecoder(buf)
				if _, err := d.ReadBits(prefixBits); err != nil {
					t.Fatal(err)
				}
				ok := d.ConsumeIfEqual(q, n)
				return ok, d.pos
			}
			if ok, pos := consume(p, data); !ok || pos != off+n {
				t.Fatalf("prefix %d, %d bits: ConsumeIfEqual = %v at pos %d, want match at %d", prefixBits, n, ok, pos, off+n)
			}
			d := NewDecoder(data)
			d.ReadBits(prefixBits)
			d.ConsumeIfEqual(p, n)
			if v, err := d.ReadBits(3); err != nil || v != 0x5 {
				t.Fatalf("prefix %d, %d bits: trailer after match = %d, %v", prefixBits, n, v, err)
			}

			// One flipped bit anywhere in the string, in the local copy
			// or in the stream, is a mismatch that consumes nothing.
			flips := []int64{0, n - 1, n / 2}
			if n > 8 {
				flips = append(flips, n&^7) // first bit of a trailing partial byte
			}
			for _, f := range flips {
				if f < 0 || f >= n {
					continue
				}
				q := append([]byte(nil), p...)
				q[f/8] ^= 1 << (7 - uint(f%8))
				if ok, pos := consume(q, data); ok || pos != off {
					t.Fatalf("prefix %d, %d bits, flip %d: ConsumeIfEqual = %v at pos %d, want reject at %d", prefixBits, n, f, ok, pos, off)
				}
				bad := append([]byte(nil), data...)
				bit := off + f
				bad[bit/8] ^= 1 << (7 - uint(bit%8))
				if ok, pos := consume(p, bad); ok || pos != off {
					t.Fatalf("prefix %d, %d bits, stream flip %d: ConsumeIfEqual = %v at pos %d, want reject at %d", prefixBits, n, f, ok, pos, off)
				}
			}

			// Bits of p past n are not part of the string.
			if n%8 != 0 {
				q := append([]byte(nil), p...)
				q[len(q)-1] ^= 1
				if ok, _ := consume(q, data); !ok {
					t.Fatalf("prefix %d, %d bits: padding bit changed the comparison", prefixBits, n)
				}
			}

			// Truncation: a stream that ends inside the string is
			// rejected without moving.
			if n > 0 {
				short := data[:(off+n-1)/8]
				d := NewDecoder(short)
				if _, err := d.ReadBits(prefixBits); err != nil {
					continue // the prefix itself no longer fits
				}
				if d.ConsumeIfEqual(p, n) || d.pos != off {
					t.Fatalf("prefix %d, %d bits: truncated stream accepted or moved to %d", prefixBits, n, d.pos)
				}
			}
		}
	}
}

// FuzzBitString round-trips a random bit string through WriteBitString
// and ConsumeIfEqual behind a prefix of random width, and requires a
// single flipped bit to be rejected without consuming anything.
func FuzzBitString(f *testing.F) {
	f.Add(uint8(1), uint64(1), []byte("strata cells spliced at bit offset one"), uint16(300), uint16(17))
	f.Add(uint8(0), uint64(0), []byte{}, uint16(0), uint16(0))
	f.Add(uint8(7), uint64(0x55), bytes.Repeat([]byte{0xa5}, 70), uint16(560), uint16(559))
	f.Fuzz(func(t *testing.T, prefixBits uint8, prefix uint64, p []byte, n, flip uint16) {
		pw := uint(prefixBits % 65)
		prefix &= 1<<pw - 1
		nbits := int64(n) % (int64(len(p))*8 + 1)
		data, off := bitStringCase(t, pw, prefix, p, nbits)
		d := NewDecoder(data)
		if _, err := d.ReadBits(pw); err != nil {
			t.Fatal(err)
		}
		if !d.ConsumeIfEqual(p, nbits) || d.pos != off+nbits {
			t.Fatalf("round trip of %d bits at offset %d not consumed (pos %d)", nbits, off, d.pos)
		}
		if nbits == 0 {
			return
		}
		q := append([]byte(nil), p...)
		fb := int64(flip) % nbits
		q[fb/8] ^= 1 << (7 - uint(fb%8))
		d = NewDecoder(data)
		d.ReadBits(pw)
		if d.ConsumeIfEqual(q, nbits) || d.pos != off {
			t.Fatalf("bit %d of %d flipped: accepted or moved to %d", fb, nbits, d.pos)
		}
	})
}

package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// refBitWriter is an independent reference implementation of the wire
// bit format: every value is appended bit by bit (MSB first) to a bool
// slice, then packed. The Encoder's word-at-a-time accumulator must
// produce exactly this stream — the golden property every sketch's wire
// bytes rest on.
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

// refReadBits returns the n bits of the packed stream p at bit pos,
// right-aligned, one bit at a time.
func refReadBits(p []byte, pos int64, n uint) uint64 {
	var v uint64
	for i := pos; i < pos+int64(n); i++ {
		v = v<<1 | uint64(p[i/8]>>(7-uint(i%8))&1)
	}
	return v
}

// Codec script op kinds.
const (
	opBits = iota
	opUvarint
	opVarint
	opBytes
	opUint64
	opGrow
	opBitString
	numOps
)

// codecOp is one write of a codec script, and the read that must
// return its value.
type codecOp struct {
	kind int
	v    uint64
	sv   int64
	n    uint   // opBits width, opGrow size
	p    []byte // opBytes payload, opBitString packed string
	nbit int64  // opBitString length
}

func (o codecOp) write(e *Encoder, ref *refBitWriter) {
	switch o.kind {
	case opBits:
		e.WriteBits(o.v, o.n)
		ref.writeBits(o.v, o.n)
	case opUvarint:
		e.WriteUvarint(o.v)
		ref.writeUvarint(o.v)
	case opVarint:
		e.WriteVarint(o.sv)
		ref.writeVarint(o.sv)
	case opBytes:
		e.WriteBytes(o.p)
		ref.writeBytes(o.p)
	case opUint64:
		e.WriteUint64(o.v)
		ref.writeBits(o.v, 64)
	case opGrow: // writes nothing
		e.Grow(int(o.n))
	case opBitString:
		e.WriteBitString(o.p, o.nbit)
		ref.writeBitString(o.p, o.nbit)
	}
}

// read reads the op's value back and reports a mismatch or read error.
func (o codecOp) read(d *Decoder) error {
	var (
		got uint64
		err error
	)
	switch o.kind {
	case opBits:
		got, err = d.ReadBits(o.n)
	case opUvarint:
		got, err = d.ReadUvarint()
	case opVarint:
		var sv int64
		sv, err = d.ReadVarint()
		got = uint64(sv)
		o.v = uint64(o.sv)
	case opBytes:
		p, err := d.ReadBytes()
		if err == nil && !bytes.Equal(p, o.p) {
			return errors.New("ReadBytes value differs")
		}
		return err
	case opUint64:
		got, err = d.ReadUint64()
	case opGrow:
		return nil
	case opBitString:
		// The string's whole bytes, then its last partial byte with the
		// padding zeroed; a sentinel byte after it must survive.
		whole, rem := o.nbit/8, o.nbit%8
		want := append([]byte(nil), o.p[:whole]...)
		if rem > 0 {
			want = append(want, o.p[whole]&^(0xff>>rem))
		}
		q := bytes.Repeat([]byte{0xa5}, len(want)+1)
		if err := d.ReadBitString(q, o.nbit); err != nil {
			return err
		}
		if !bytes.Equal(q[:len(want)], want) || q[len(want)] != 0xa5 {
			return errors.New("ReadBitString value differs")
		}
		return nil
	}
	if err == nil && got != o.v {
		return errors.New("value differs")
	}
	return err
}

// checkScript writes ops through the Encoder and the bitwise reference
// and requires identical streams, reads every value back, checks reads
// that end anywhere in the payload's last 8 bytes (the decoder's tail
// load) against the reference, and requires the stream cut short by
// one byte to fail some read.
func checkScript(t testing.TB, ops []codecOp) {
	t.Helper()
	e := NewEncoder()
	var ref refBitWriter
	for _, o := range ops {
		o.write(e, &ref)
	}
	got, bits := e.Pack()
	want := ref.pack()
	if int64(len(ref.bits)) != bits {
		t.Fatalf("bit count %d, reference %d", bits, len(ref.bits))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream mismatch\n got %x\nwant %x", got, want)
	}

	d := NewDecoder(got)
	for i, o := range ops {
		if err := o.read(d); err != nil {
			t.Fatalf("op %d (kind %d): %v", i, o.kind, err)
		}
	}
	if d.pos != bits {
		t.Fatalf("read back %d bits of %d", d.pos, bits)
	}
	if _, err := d.ReadBits(uint(int64(len(got))*8-bits) + 1); err != ErrShortMessage {
		t.Fatalf("read past the payload: %v, want ErrShortMessage", err)
	}

	end := int64(len(got)) * 8
	for stop := max(end-64, 0); stop <= end; stop++ {
		for _, n := range []uint{0, 1, 7, 8, 9, 33, 56, 57, 63, 64} {
			if pos := stop - int64(n); pos >= 0 {
				d.pos = pos
				if v, err := d.ReadBits(n); err != nil || v != refReadBits(want, pos, n) {
					t.Fatalf("%d bits at %d of %d: %#x, %v; want %#x", n, pos, end, v, err, refReadBits(want, pos, n))
				}
			}
		}
	}

	if len(got) == 0 {
		return
	}
	d = NewDecoder(got[:len(got)-1])
	for _, o := range ops {
		if o.read(d) != nil {
			return
		}
	}
	t.Fatalf("stream cut to %d of %d bytes read back without error", len(got)-1, len(got))
}

// TestEncoderMatchesBitReference drives the Encoder and the bitwise
// reference through identical randomized scripts mixing every write,
// at every alignment, and requires byte-identical output and
// value-identical reads (see checkScript). Grow is one more op kind: it
// must leave the stream untouched.
func TestEncoderMatchesBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stringAligns [8]bool
	for trial := 0; trial < 200; trial++ {
		var ops []codecOp
		var align int64 // stream length mod 8: only opBits and opBitString move it
		for i := 0; i < 30; i++ {
			o := codecOp{kind: rng.Intn(numOps)}
			switch o.kind {
			case opBits: // random width, 0 included (often misaligning)
				o.n = uint(rng.Intn(65))
				o.v = rng.Uint64() & (1<<o.n - 1)
				align = (align + int64(o.n)) % 8
			case opUvarint:
				o.v = rng.Uint64() >> uint(rng.Intn(64))
			case opVarint:
				o.sv = int64(rng.Uint64()) >> uint(rng.Intn(64))
			case opBytes:
				o.p = make([]byte, rng.Intn(40))
				rng.Read(o.p)
			case opUint64:
				o.v = rng.Uint64()
			case opGrow:
				o.n = uint(rng.Intn(64))
			case opBitString:
				o.p = make([]byte, rng.Intn(40))
				rng.Read(o.p)
				o.nbit = rng.Int63n(int64(len(o.p))*8 + 1)
				stringAligns[align] = true
				align = (align + o.nbit) % 8
			}
			ops = append(ops, o)
		}
		checkScript(t, ops)
	}
	for a, seen := range stringAligns {
		if !seen {
			t.Fatalf("no bit string written at alignment %d", a)
		}
	}
}

// FuzzCodecScript reads a codec script from the fuzz input — each op
// a kind byte and its arguments — and checks it as
// TestEncoderMatchesBitReference does (see checkScript).
func FuzzCodecScript(f *testing.F) {
	f.Add([]byte{})
	// 3 bits, a uint64 (the accumulator fills with 3 bits to carry), a
	// 13-bit field, an 8-byte varint, bytes.
	f.Add([]byte("\x00\x03\x00\x00\x00\x00\x00\x00\x00\x05\x04\x01\x23\x45\x67\x89\xab\xcd\xef" +
		"\x00\x0d\x00\x00\x00\x00\x00\x00\x1f\xff\x01\x81\x82\x83\x84\x85\x86\x87\x88\x00\x03\x05abcde"))
	// 5 bits, then a 157-bit string spliced misaligned.
	f.Add([]byte("\x00\x05\x00\x00\x00\x00\x00\x00\x00\x1b\x06\x14a spliced bit string\x00\x9d"))
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		word := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(next())
			}
			return v
		}
		take := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i] = next()
			}
			return p
		}
		var ops []codecOp
		for len(in) > 0 && len(ops) < 64 {
			o := codecOp{kind: int(next()) % numOps}
			switch o.kind {
			case opBits:
				o.n = uint(next()) % 65
				o.v = word() & (1<<o.n - 1)
			case opUvarint:
				o.v = word() >> (next() % 64)
			case opVarint:
				o.sv = int64(word()) >> (next() % 64)
			case opBytes:
				o.p = take(int(next() % 48))
			case opUint64:
				o.v = word()
			case opGrow:
				o.n = uint(next())
			case opBitString:
				o.p = take(int(next() % 48))
				o.nbit = (int64(next())<<8 | int64(next())) % (int64(len(o.p))*8 + 1)
			}
			ops = append(ops, o)
		}
		checkScript(t, ops)
	})
}

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
// more than 64 bytes, and checks that ReadBitString reads exactly the
// spliced string back: the string's own bits, its padding zeroed, the
// trailer after it intact, and a truncated stream rejected without
// moving.
func TestBitStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int64{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 511, 512, 520, 64*8 + 13, 1000}
	for prefixBits := uint(0); prefixBits < 8; prefixBits++ {
		for _, n := range lengths {
			p := make([]byte, (n+7)/8)
			rng.Read(p)
			prefix := rng.Uint64() & (1<<prefixBits - 1)
			data, off := bitStringCase(t, prefixBits, prefix, p, n)

			d := NewDecoder(data)
			if _, err := d.ReadBits(prefixBits); err != nil {
				t.Fatal(err)
			}
			q := make([]byte, len(p))
			if err := d.ReadBitString(q, n); err != nil || d.pos != off+n {
				t.Fatalf("prefix %d, %d bits: ReadBitString err %v at pos %d, want %d", prefixBits, n, err, d.pos, off+n)
			}
			want := append([]byte(nil), p...)
			if n%8 != 0 {
				want[len(want)-1] &^= 0xff >> uint(n%8)
			}
			if !bytes.Equal(q, want) {
				t.Fatalf("prefix %d, %d bits: read back %x, want %x", prefixBits, n, q, want)
			}
			if v, err := d.ReadBits(3); err != nil || v != 0x5 {
				t.Fatalf("prefix %d, %d bits: trailer after the string = %d, %v", prefixBits, n, v, err)
			}

			// Truncation: a stream that ends inside the string is
			// rejected without moving.
			if n > 0 {
				short := data[:(off+n-1)/8]
				d := NewDecoder(short)
				if _, err := d.ReadBits(prefixBits); err != nil {
					continue // the prefix itself no longer fits
				}
				if err := d.ReadBitString(q, n); err != ErrShortMessage || d.pos != off {
					t.Fatalf("prefix %d, %d bits: truncated stream gave %v at pos %d", prefixBits, n, err, d.pos)
				}
			}
		}
	}
}

// FuzzBitString round-trips a random bit string through WriteBitString
// and ReadBitString behind a prefix of random width, and requires the
// bit at a random index to read back as written.
func FuzzBitString(f *testing.F) {
	f.Add(uint8(1), uint64(1), []byte("strata cells spliced at bit offset one"), uint16(300), uint16(17))
	f.Add(uint8(0), uint64(0), []byte{}, uint16(0), uint16(0))
	f.Add(uint8(7), uint64(0x55), bytes.Repeat([]byte{0xa5}, 70), uint16(560), uint16(559))
	f.Fuzz(func(t *testing.T, prefixBits uint8, prefix uint64, p []byte, n, probe uint16) {
		pw := uint(prefixBits % 65)
		prefix &= 1<<pw - 1
		nbits := int64(n) % (int64(len(p))*8 + 1)
		data, off := bitStringCase(t, pw, prefix, p, nbits)
		d := NewDecoder(data)
		if v, err := d.ReadBits(pw); err != nil || v != prefix {
			t.Fatalf("prefix read %x, %v; want %x", v, err, prefix)
		}
		q := make([]byte, len(p))
		if err := d.ReadBitString(q, nbits); err != nil || d.pos != off+nbits {
			t.Fatalf("round trip of %d bits at offset %d: err %v, pos %d", nbits, off, err, d.pos)
		}
		if nbits == 0 {
			return
		}
		b := int64(probe) % nbits
		bit := func(x []byte) byte { return x[b/8] >> (7 - uint(b%8)) & 1 }
		if bit(q) != bit(p) {
			t.Fatalf("bit %d of %d read back %d, wrote %d", b, nbits, bit(q), bit(p))
		}
		if !bytes.Equal(q[:nbits/8], p[:nbits/8]) {
			t.Fatalf("whole bytes of the %d-bit string differ:\n%x\n%x", nbits, q[:nbits/8], p[:nbits/8])
		}
	})
}

// TestReadBitStringShort: a bit string longer than what remains is
// rejected before anything is written into the destination, and the
// position stays where it was.
func TestReadBitStringShort(t *testing.T) {
	e := NewEncoder()
	e.WriteBits(0x5, 3)
	e.WriteBitString([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}, 37)
	data, _ := e.Pack()
	d := NewDecoder(data)
	d.ReadBits(3)
	q := bytes.Repeat([]byte{0xa5}, 6)
	if err := d.ReadBitString(q, 45); err != ErrShortMessage {
		t.Fatalf("45-bit read of 37 remaining: %v, want ErrShortMessage", err)
	}
	if d.pos != 3 || !bytes.Equal(q, bytes.Repeat([]byte{0xa5}, 6)) {
		t.Fatalf("rejected read moved to %d or wrote %x", d.pos, q)
	}
	if err := d.ReadBitString(q, 37); err != nil || !bytes.Equal(q, []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0xa5}) {
		t.Fatalf("37-bit read = %x, %v", q, err)
	}
}

// TestVarintBytes: UvarintBytes and VarintBytes give exactly the bytes
// WriteUvarint and WriteVarint write, at every 7-bit boundary and at the
// extremes.
func TestVarintBytes(t *testing.T) {
	for shift := uint(0); shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1, ^uint64(0)} {
			e := NewEncoder()
			e.WriteUvarint(u)
			if _, bits := e.Pack(); UvarintBytes(u) != int(bits/8) {
				t.Fatalf("UvarintBytes(%d) = %d, WriteUvarint wrote %d bytes", u, UvarintBytes(u), bits/8)
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				e := NewEncoder()
				e.WriteVarint(v)
				if _, bits := e.Pack(); VarintBytes(v) != int(bits/8) {
					t.Fatalf("VarintBytes(%d) = %d, WriteVarint wrote %d bytes", v, VarintBytes(v), bits/8)
				}
			}
		}
	}
}

// Package transport carries protocol messages between Alice and Bob and
// accounts for every bit exchanged.
//
// The paper's results are communication bounds, so the reproduction must
// measure communication exactly rather than estimate it. Every protocol
// message is serialized through an Encoder, which counts the exact bits
// written; a Conn (an in-process Pipe here, a framed network wire in
// package netproto) carries messages and tallies their sizes and rounds
// in Stats. A round, following §2, is one message: "the number of
// rounds of communication a protocol uses ... is equal to the number of
// messages sent."
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Direction identifies the sender of a message.
type Direction int

const (
	// AliceToBob marks messages sent by Alice.
	AliceToBob Direction = iota
	// BobToAlice marks messages sent by Bob.
	BobToAlice
)

// String names the direction for reports.
func (d Direction) String() string {
	if d == AliceToBob {
		return "alice→bob"
	}
	return "bob→alice"
}

// Stats summarizes the traffic of one protocol run or, folded with Add,
// of many.
type Stats struct {
	Rounds     int   // number of messages (the paper's round count)
	BitsAtoB   int64 // payload bits Alice sent
	BitsBtoA   int64 // payload bits Bob sent
	MsgsAtoB   int
	MsgsBtoA   int
	maxPayload int64
}

// TotalBits returns all payload bits in both directions.
func (s Stats) TotalBits() int64 { return s.BitsAtoB + s.BitsBtoA }

// TotalBytes returns the total payload rounded up to bytes.
func (s Stats) TotalBytes() int64 { return (s.TotalBits() + 7) / 8 }

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d a→b=%dbits b→a=%dbits total=%dB",
		s.Rounds, s.BitsAtoB, s.BitsBtoA, s.TotalBytes())
}

// ErrShortMessage is returned when a Decoder runs out of payload.
var ErrShortMessage = errors.New("transport: message truncated")

// Encoder writes a message payload with exact bit accounting. Values are
// bit-packed, most significant bit first; WriteBits is the primitive,
// with varint, length-prefixed and bit-string helpers on top. Written
// bits collect in a 64-bit accumulator, left-aligned, and reach the
// payload buffer one big-endian word at a time; Pack flushes the rest.
// The zero value is an empty encoder, ready to use.
type Encoder struct {
	buf     []byte
	bitsUse int64  // exact logical bits written (may trail the byte buffer)
	acc     uint64 // the accN bits written after buf, left-aligned
	accN    uint   // < 64
}

// encPool recycles Encoders (with their payload buffers attached) so the
// steady-state send path allocates nothing. Encoders re-enter the pool
// only through Recycle — called by consumers, such as netproto's framed
// wire, that have fully copied the payload out. Encoders whose payload
// escapes to the caller (Pack) simply fall to the garbage collector.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// NewEncoder returns an empty encoder, drawn from an internal pool. An
// encoder passed to a Send that documents recycling (netproto.Wire.Send)
// must not be used again afterwards — it may already be serving another
// goroutine.
func NewEncoder() *Encoder { return encPool.Get().(*Encoder) }

// Recycle returns an encoder and the payload buffer its finish/Pack
// produced to the pool. Only the sole owner of buf may call it, after
// fully consuming the bytes; retaining buf afterwards aliases a future
// encoder's scratch.
func Recycle(e *Encoder, buf []byte) {
	e.buf, e.acc, e.accN, e.bitsUse = buf[:0], 0, 0, 0
	encPool.Put(e)
}

// Grow makes room for nbytes more payload bytes, so a caller that knows
// a message's size packs it into one allocation. The stream is unchanged.
// (slices.Grow would allocate twice in race-detector builds.)
func (e *Encoder) Grow(nbytes int) {
	if cap(e.buf)-len(e.buf) < nbytes {
		buf := make([]byte, len(e.buf), len(e.buf)+nbytes)
		copy(buf, e.buf)
		e.buf = buf
	}
}

// WriteBits appends the low n bits of v, most significant bit first.
// n must be in [0, 64].
func (e *Encoder) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic("transport: WriteBits width > 64")
	}
	e.bitsUse += int64(n)
	v <<= 64 - n // left-align, dropping the bits above n
	e.acc |= v >> e.accN
	e.accN += n
	if e.accN >= 64 {
		// The word is full: emit it and carry the accN bits of v that
		// did not fit.
		e.buf = binary.BigEndian.AppendUint64(e.buf, e.acc)
		e.accN -= 64
		e.acc = v << (n - e.accN)
	}
}

// WriteBool writes a single bit.
func (e *Encoder) WriteBool(b bool) {
	if b {
		e.WriteBits(1, 1)
	} else {
		e.WriteBits(0, 1)
	}
}

// WriteUvarint writes v in a bitwise varint: groups of 7 bits, each
// preceded by a continue flag, costing 8 bits per 7 payload bits. Each
// group is one 8-bit write (flag in the high bit).
func (e *Encoder) WriteUvarint(v uint64) {
	for v >= 0x80 {
		e.WriteBits(0x80|v&0x7f, 8)
		v >>= 7
	}
	e.WriteBits(v, 8)
}

// UvarintBytes is the number of bytes WriteUvarint writes for v.
func UvarintBytes(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintBytes is the number of bytes WriteVarint writes for v.
func VarintBytes(v int64) int { return UvarintBytes(uint64(v<<1) ^ uint64(v>>63)) }

// WriteVarint writes a signed value with zigzag coding.
func (e *Encoder) WriteVarint(v int64) {
	e.WriteUvarint(uint64(v<<1) ^ uint64(v>>63))
}

// WriteUint64 writes a fixed 64-bit value.
func (e *Encoder) WriteUint64(v uint64) { e.WriteBits(v, 64) }

// WriteBytes writes a length-prefixed byte string.
func (e *Encoder) WriteBytes(p []byte) {
	e.WriteUvarint(uint64(len(p)))
	e.WriteBitString(p, int64(len(p))*8)
}

// WriteBitString appends the first nbits of p, a bit string packed MSB
// first as Pack returns it, at the encoder's current bit alignment.
// The stream is exactly what re-encoding the structure that produced p
// would write here, so a sender can cache a structure's encoding once
// and splice it into many frames. Bits of p past nbits are ignored.
func (e *Encoder) WriteBitString(p []byte, nbits int64) {
	if nbits < 0 || nbits > int64(len(p))*8 {
		panic("transport: WriteBitString length out of range")
	}
	if e.accN&7 == 0 {
		// Byte-aligned: flush the accumulator and append whole bytes.
		e.flush()
		whole := nbits / 8
		e.buf = append(e.buf, p[:whole]...)
		e.bitsUse += whole * 8
		p, nbits = p[whole:], nbits-whole*8
	}
	for ; nbits >= 64; nbits -= 64 {
		e.WriteBits(binary.BigEndian.Uint64(p), 64)
		p = p[8:]
	}
	if nbits > 0 {
		e.WriteBits(leadingBits(p, uint(nbits)), uint(nbits))
	}
}

// leadingBits returns the first n ≤ 64 bits of the packed string p,
// right-aligned; p must hold at least n bits.
func leadingBits(p []byte, n uint) uint64 {
	var w [8]byte
	copy(w[:], p)
	return binary.BigEndian.Uint64(w[:]) >> (64 - n)
}

// Bits returns the exact number of payload bits written so far.
func (e *Encoder) Bits() int64 { return e.bitsUse }

// Pack flushes the accumulator and returns the payload bytes and exact
// bit count, resetting the encoder. A Conn's Send uses the same path.
func (e *Encoder) Pack() ([]byte, int64) { return e.finish() }

// finish flushes the accumulator and returns payload and size.
func (e *Encoder) finish() ([]byte, int64) {
	e.flush()
	buf, bits := e.buf, e.bitsUse
	e.buf, e.bitsUse = nil, 0
	return buf, bits
}

// flush moves the accumulator's bytes to the buffer, the last one
// zero-padded.
func (e *Encoder) flush() {
	for i := uint(0); i < e.accN; i += 8 {
		e.buf = append(e.buf, byte(e.acc>>(56-i)))
	}
	e.acc, e.accN = 0, 0
}

// Decoder reads a payload produced by an Encoder, in the same order.
// Every read of up to 64 bits is one big-endian load of the 64-bit
// window at the current byte, shifted to the current bit.
type Decoder struct {
	buf []byte
	pos int64 // bit position
}

// NewDecoder wraps a payload.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Reset points the decoder at a new payload, reusing the struct. Wire
// implementations that own a reusable frame buffer reset one decoder per
// frame instead of allocating.
func (d *Decoder) Reset(data []byte) { d.buf, d.pos = data, 0 }

// Remaining returns how many whole bytes are left to read. Structure
// decoders use it to reject peer-supplied element counts that the rest
// of the frame could not possibly encode, *before* allocating for them
// — a few hostile header bytes must not reserve gigabytes.
func (d *Decoder) Remaining() int {
	rem := int64(len(d.buf)) - (d.pos+7)/8
	if rem < 0 {
		return 0
	}
	return int(rem)
}

// remainingBits returns how many bits are left to read.
func (d *Decoder) remainingBits() int64 { return int64(len(d.buf))*8 - d.pos }

// window returns the 64 bits of the stream at the current position,
// left-aligned: one 8-byte load shifted to the bit offset, with the
// 9th byte's leading bits shifted in behind it. In the payload's last
// 8 bytes the word is assembled from the bytes left; there is no 9th
// byte to straddle, and bits past the payload read as zero.
func (d *Decoder) window() uint64 {
	i, off := d.pos>>3, uint(d.pos&7)
	if i+9 <= int64(len(d.buf)) {
		b := d.buf[i : i+9]
		return binary.BigEndian.Uint64(b)<<off | uint64(b[8])>>(8-off)
	}
	var w uint64
	for j, c := range d.buf[i:] {
		w |= uint64(c) << (56 - 8*j)
	}
	return w << off
}

// ReadBits reads n bits written by WriteBits.
func (d *Decoder) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic("transport: ReadBits width > 64")
	}
	if int64(n) > d.remainingBits() {
		return 0, ErrShortMessage
	}
	v := d.window() >> (64 - n)
	d.pos += int64(n)
	return v, nil
}

// ReadBitString reads nbits written by WriteBitString into p, packed
// MSB first; the bits of p's last partial byte past nbits are zeroed
// and bytes after it are untouched. p must hold at least nbits. When
// fewer than nbits remain it returns ErrShortMessage, leaving p and the
// position unchanged.
func (d *Decoder) ReadBitString(p []byte, nbits int64) error {
	if nbits < 0 || nbits > int64(len(p))*8 {
		panic("transport: ReadBitString length out of range")
	}
	if nbits > d.remainingBits() {
		return ErrShortMessage
	}
	if d.pos&7 == 0 {
		whole := copy(p[:nbits/8], d.buf[d.pos>>3:])
		d.pos += int64(whole) * 8
		p, nbits = p[whole:], nbits-int64(whole)*8
	}
	for ; nbits >= 64; nbits -= 64 {
		binary.BigEndian.PutUint64(p, d.window())
		d.pos += 64
		p = p[8:]
	}
	if nbits > 0 {
		v := d.window() >> (64 - nbits) << (64 - nbits)
		for i := range (nbits + 7) / 8 {
			p[i] = byte(v >> (56 - 8*i))
		}
		d.pos += nbits
	}
	return nil
}

// ReadBool reads one bit.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadBits(1)
	return v == 1, err
}

// errUvarintOverflow rejects a varint whose value does not fit in 64
// bits.
var errUvarintOverflow = errors.New("transport: uvarint overflow")

// ReadUvarint reads a value written by WriteUvarint: 8-bit groups,
// continue flag in the high bit, taken eight at a time from one window.
// As in encoding/binary, a 10th group greater than 1 overflows 64 bits
// and is an error.
func (d *Decoder) ReadUvarint() (uint64, error) {
	var v, w uint64
	for g := uint(0); ; g++ {
		if d.remainingBits() < 8 {
			return 0, ErrShortMessage
		}
		if g%8 == 0 {
			w = d.window()
		}
		b := w >> 56
		w <<= 8
		d.pos += 8
		if g == 9 && b > 1 {
			return 0, errUvarintOverflow
		}
		v |= (b & 0x7f) << (7 * g)
		if b < 0x80 {
			return v, nil
		}
	}
}

// ReadVarint reads a value written by WriteVarint.
func (d *Decoder) ReadVarint() (int64, error) {
	u, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// ReadUint64 reads a fixed 64-bit value.
func (d *Decoder) ReadUint64() (uint64, error) { return d.ReadBits(64) }

// ReadBytes reads a length-prefixed byte string. The returned slice is
// freshly allocated and owned by the caller.
func (d *Decoder) ReadBytes() ([]byte, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// Compare against the payload length before multiplying: a crafted
	// length near 2^61 would overflow int64(n)*8 and slip past the
	// remaining-bits check into a panicking allocation.
	if n > uint64(len(d.buf)) || int64(n)*8 > d.remainingBits() {
		return nil, ErrShortMessage
	}
	p := make([]byte, n)
	return p, d.ReadBitString(p, int64(n)*8)
}

// ReadBytesBorrow reads a length-prefixed byte string without copying
// when the string is byte-aligned in the payload (it always is when the
// sender wrote only whole-byte values before it). The returned slice
// aliases the decoder's backing buffer: it is valid only until the
// backing frame is released or overwritten — for a netproto wire, until
// the next Recv on that wire — and must not be mutated. Callers that
// retain bytes use ReadBytes instead.
func (d *Decoder) ReadBytesBorrow() ([]byte, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// Overflow-safe bound, as in ReadBytes.
	if n > uint64(len(d.buf)) || int64(n)*8 > d.remainingBits() {
		return nil, ErrShortMessage
	}
	if d.pos&7 == 0 {
		i := d.pos >> 3
		d.pos += int64(n) * 8
		return d.buf[i : i+int64(n) : i+int64(n)], nil
	}
	p := make([]byte, n)
	return p, d.ReadBitString(p, int64(n)*8)
}

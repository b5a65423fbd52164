// Package transport simulates the communication channel between Alice
// and Bob and accounts for every bit exchanged.
//
// The paper's results are communication bounds, so the reproduction must
// measure communication exactly rather than estimate it. Both parties run
// in one process, but every protocol message is serialized through an
// Encoder before the peer may read it, and a Channel tallies message
// sizes and rounds. A round, following §2, is one message: "the number of
// rounds of communication a protocol uses ... is equal to the number of
// messages sent."
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// Stats summarizes the traffic carried by a Channel.
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

// Channel carries serialized messages between the two parties and tallies
// Stats. The zero value is ready to use.
type Channel struct {
	stats   Stats
	pending []message
}

type message struct {
	dir  Direction
	data []byte
	bits int64
}

// Send transmits an encoded message. The encoder is consumed: its
// contents become the message payload, measured in exact bits written.
func (c *Channel) Send(dir Direction, enc *Encoder) {
	data, bits := enc.finish()
	c.stats.Rounds++
	switch dir {
	case AliceToBob:
		c.stats.BitsAtoB += bits
		c.stats.MsgsAtoB++
	case BobToAlice:
		c.stats.BitsBtoA += bits
		c.stats.MsgsBtoA++
	}
	c.stats.ObservePayload(bits)
	c.pending = append(c.pending, message{dir: dir, data: data, bits: bits})
}

// Recv returns a decoder over the oldest undelivered message in the given
// direction. It returns an error if no such message is queued — protocols
// must consume messages in order, which catches round-structure bugs.
func (c *Channel) Recv(dir Direction) (*Decoder, error) {
	for i, m := range c.pending {
		if m.dir == dir {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return NewDecoder(m.data), nil
		}
	}
	return nil, fmt.Errorf("transport: no pending message in direction %v", dir)
}

// Stats returns a snapshot of the traffic so far.
func (c *Channel) Stats() Stats { return c.stats }

// ErrShortMessage is returned when a Decoder runs out of payload.
var ErrShortMessage = errors.New("transport: message truncated")

// Encoder writes a message payload with exact bit accounting. Values are
// bit-packed; WriteBits is the primitive, with varint and length-prefixed
// helpers on top.
type Encoder struct {
	buf     []byte
	bitsUse int64 // exact logical bits written (may trail the byte buffer)
	cur     byte
	curN    uint // bits currently occupied in cur
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
	e.buf, e.cur, e.curN, e.bitsUse = buf[:0], 0, 0, 0
	encPool.Put(e)
}

// WriteBits appends the low n bits of v, most significant bit first.
// n must be in [0, 64].
func (e *Encoder) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic("transport: WriteBits width > 64")
	}
	e.bitsUse += int64(n)
	if e.curN == 0 {
		// Byte-aligned fast path: emit whole bytes directly. The bit
		// stream is identical to the generic path — MSB first.
		for n >= 8 {
			n -= 8
			e.buf = append(e.buf, byte(v>>n))
		}
		if n == 0 {
			return
		}
	}
	for n > 0 {
		take := 8 - e.curN
		if take > n {
			take = n
		}
		chunk := byte(v >> (n - take) & (1<<take - 1))
		e.cur |= chunk << (8 - e.curN - take)
		e.curN += take
		n -= take
		if e.curN == 8 {
			e.buf = append(e.buf, e.cur)
			e.cur, e.curN = 0, 0
		}
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
// group is one 8-bit write (flag in the high bit), so the bit stream is
// the historical one while aligned encoders emit one byte per group.
func (e *Encoder) WriteUvarint(v uint64) {
	for v >= 0x80 {
		e.WriteBits(0x80|v&0x7f, 8)
		v >>= 7
	}
	e.WriteBits(v, 8)
}

// WriteVarint writes a signed value with zigzag coding.
func (e *Encoder) WriteVarint(v int64) {
	e.WriteUvarint(uint64(v<<1) ^ uint64(v>>63))
}

// WriteUint64 writes a fixed 64-bit value.
func (e *Encoder) WriteUint64(v uint64) { e.WriteBits(v, 64) }

// WriteBytes writes a length-prefixed byte string.
func (e *Encoder) WriteBytes(p []byte) {
	e.WriteUvarint(uint64(len(p)))
	if e.curN == 0 {
		// Aligned: the payload is appended wholesale instead of a bit at
		// a time. Identical bytes either way.
		e.buf = append(e.buf, p...)
		e.bitsUse += int64(len(p)) * 8
		return
	}
	for _, b := range p {
		e.WriteBits(uint64(b), 8)
	}
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
	// One 64-bit word per step: the curN pending bits lead the output
	// word, and the word's low curN bits become the new pending byte.
	// Aligned (curN = 0) this degenerates to appending the word.
	for ; nbits >= 64; nbits -= 64 {
		v := binary.BigEndian.Uint64(p)
		e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(e.cur)<<56|v>>e.curN)
		e.cur = byte(v << (8 - e.curN))
		e.bitsUse += 64
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

// Pack flushes the trailing partial byte and returns the payload bytes
// and exact bit count, resetting the encoder. Use it when the encoder
// serves as a local bit packer rather than a channel message (e.g.
// serializing LSH keys for hashing); Channel.Send uses the same path.
func (e *Encoder) Pack() ([]byte, int64) { return e.finish() }

// finish flushes the trailing partial byte and returns payload and size.
func (e *Encoder) finish() ([]byte, int64) {
	buf := e.buf
	if e.curN > 0 {
		buf = append(buf, e.cur)
	}
	bits := e.bitsUse
	e.buf, e.cur, e.curN, e.bitsUse = nil, 0, 0, 0
	return buf, bits
}

// Decoder reads a payload produced by an Encoder, in the same order.
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

// ReadBits reads n bits written by WriteBits.
func (d *Decoder) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic("transport: ReadBits width > 64")
	}
	if d.pos+int64(n) > int64(len(d.buf))*8 {
		return 0, ErrShortMessage
	}
	var v uint64
	if d.pos&7 == 0 {
		// Byte-aligned fast path: consume whole bytes (MSB first, the
		// same bit order as the generic path).
		i := d.pos >> 3
		for n >= 8 {
			v = v<<8 | uint64(d.buf[i])
			i++
			n -= 8
		}
		d.pos = i << 3
		if n == 0 {
			return v, nil
		}
	}
	for n > 0 {
		byteIdx := d.pos >> 3
		bitOff := uint(d.pos & 7)
		take := 8 - bitOff
		if take > n {
			take = n
		}
		chunk := uint64(d.buf[byteIdx]>>(8-bitOff-take)) & (1<<take - 1)
		v = v<<take | chunk
		d.pos += int64(take)
		n -= take
	}
	return v, nil
}

// ConsumeIfEqual reports whether the next nbits of the stream equal the
// first nbits of the packed bit string p (as WriteBitString takes it).
// On a match it consumes them; otherwise, and when fewer than nbits
// remain, the position is left unchanged. A receiver uses it to
// recognise a peer structure whose encoding equals one it already
// holds, without decoding it.
func (d *Decoder) ConsumeIfEqual(p []byte, nbits int64) bool {
	if nbits < 0 || nbits > int64(len(p))*8 {
		panic("transport: ConsumeIfEqual length out of range")
	}
	if nbits > int64(len(d.buf))*8-d.pos {
		return false
	}
	start := d.pos
	// Compare a 64-bit word per step. The stream's word starting at
	// bit pos spans bytes i..i+8 when misaligned; the length check
	// above guarantees byte i+8 exists whenever off > 0.
	for ; nbits >= 64; nbits -= 64 {
		i, off := d.pos>>3, uint(d.pos&7)
		got := binary.BigEndian.Uint64(d.buf[i:])
		if off > 0 {
			got = got<<off | uint64(d.buf[i+8])>>(8-off)
		}
		if got != binary.BigEndian.Uint64(p) {
			d.pos = start
			return false
		}
		d.pos += 64
		p = p[8:]
	}
	if nbits > 0 {
		if got, _ := d.ReadBits(uint(nbits)); got != leadingBits(p, uint(nbits)) {
			d.pos = start
			return false
		}
	}
	return true
}

// ReadBool reads one bit.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadBits(1)
	return v == 1, err
}

// ReadUvarint reads a value written by WriteUvarint. Each group is one
// 8-bit read (continue flag in the high bit) — the same bit stream the
// historical 1+7 split consumed, at a fraction of the cost.
func (d *Decoder) ReadUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := d.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, errors.New("transport: uvarint overflow")
		}
		v |= (b & 0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
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
	if n > uint64(len(d.buf)) || int64(n)*8 > int64(len(d.buf))*8-d.pos {
		return nil, ErrShortMessage
	}
	p := make([]byte, n)
	d.readBytesInto(p)
	return p, nil
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
	if n > uint64(len(d.buf)) || int64(n)*8 > int64(len(d.buf))*8-d.pos {
		return nil, ErrShortMessage
	}
	if d.pos&7 == 0 {
		i := d.pos >> 3
		d.pos += int64(n) * 8
		return d.buf[i : i+int64(n) : i+int64(n)], nil
	}
	p := make([]byte, n)
	d.readBytesInto(p)
	return p, nil
}

// readBytesInto fills p from the stream; the caller has bounds-checked.
func (d *Decoder) readBytesInto(p []byte) {
	if d.pos&7 == 0 {
		i := d.pos >> 3
		copy(p, d.buf[i:])
		d.pos += int64(len(p)) * 8
		return
	}
	for i := range p {
		v, _ := d.ReadBits(8)
		p[i] = byte(v)
	}
}

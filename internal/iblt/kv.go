package iblt

import (
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/rng"
	"repro/internal/transport"
)

// KVTable is a classic XOR-based IBLT storing key-value pairs with
// fixed-size values, the form §2.2 describes first ("a hash table using
// q hash functions and m cells to store key-value pairs ... an XOR of
// the values hashed to it"). The sets-of-sets substrate uses it with the
// child-set fingerprint as key and the serialized child as value.
//
// Unlike the RIBLT, the KVTable requires exact duplicates to cancel:
// same key must imply same value. Callers that may insert duplicate
// (key, value) items disambiguate by folding an occurrence index into
// the key (see setsets).
type KVTable struct {
	q         int
	cellsPerQ int
	valBytes  int
	counts    []int64
	keySums   []uint64
	checkSums []uint64
	valSums   []byte // m × valBytes, XOR-combined
	idx       []hashx.Mixer
	check     hashx.Mixer
}

// NewKV creates a key-value IBLT with at least m cells, q hash functions
// and valBytes bytes of value per pair. Parties must share seed.
func NewKV(m, q, valBytes int, seed uint64) *KVTable {
	if q < 2 {
		panic("iblt: need q >= 2 hash functions")
	}
	if valBytes < 0 {
		panic("iblt: negative value size")
	}
	if m < q {
		m = q
	}
	cellsPerQ := (m + q - 1) / q
	cells := cellsPerQ * q
	src := rng.New(seed)
	idx := make([]hashx.Mixer, q)
	for i := range idx {
		idx[i] = hashx.NewMixer(src)
	}
	return &KVTable{
		q:         q,
		cellsPerQ: cellsPerQ,
		valBytes:  valBytes,
		counts:    make([]int64, cells),
		keySums:   make([]uint64, cells),
		checkSums: make([]uint64, cells),
		valSums:   make([]byte, cells*valBytes),
		idx:       idx,
		check:     hashx.NewMixer(src),
	}
}

// Cells returns the number of cells.
func (t *KVTable) Cells() int { return len(t.counts) }

// ValBytes returns the fixed value size.
func (t *KVTable) ValBytes() int { return t.valBytes }

func (t *KVTable) cellOf(key uint64, j int) int {
	return j*t.cellsPerQ + int(t.idx[j].Hash(key)%uint64(t.cellsPerQ))
}

// Insert adds a pair. val must have length ValBytes.
func (t *KVTable) Insert(key uint64, val []byte) { t.update(key, val, 1) }

// Delete removes a pair.
func (t *KVTable) Delete(key uint64, val []byte) { t.update(key, val, -1) }

func (t *KVTable) update(key uint64, val []byte, dir int64) {
	if len(val) != t.valBytes {
		panic(fmt.Sprintf("iblt: value size %d, table expects %d", len(val), t.valBytes))
	}
	check := t.check.Hash(key)
	for j := 0; j < t.q; j++ {
		ci := t.cellOf(key, j)
		t.counts[ci] += dir
		t.keySums[ci] ^= key
		t.checkSums[ci] ^= check
		row := t.valSums[ci*t.valBytes : (ci+1)*t.valBytes]
		for b := range val {
			row[b] ^= val[b]
		}
	}
}

// KVPair is one recovered pair.
type KVPair struct {
	Key   uint64
	Value []byte
}

// ErrKVPartial mirrors ErrPartial for the key-value table.
var ErrKVPartial = errors.New("iblt: kv peeling stalled")

// Decode peels the table, returning pairs with positive net presence
// (added) and negative (removed). The table is consumed. Each list's
// values are capacity-capped windows of one backing array.
func (t *KVTable) Decode() (added, removed []KVPair, err error) {
	w := t.valBytes
	var addedVals, removedVals []byte
	queue := make([]int, 0, len(t.counts))
	for i := range t.counts {
		if t.pure(i) {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if !t.pure(i) {
			continue
		}
		key := t.keySums[i]
		dir := t.counts[i]
		vals := &addedVals
		if dir < 0 {
			vals = &removedVals
		}
		*vals = append(*vals, t.valSums[i*w:(i+1)*w]...)
		val := (*vals)[len(*vals)-w:]
		check := t.check.Hash(key)
		for j := 0; j < t.q; j++ {
			ci := t.cellOf(key, j)
			t.counts[ci] -= dir
			t.keySums[ci] ^= key
			t.checkSums[ci] ^= check
			row := t.valSums[ci*w : (ci+1)*w]
			for b := range val {
				row[b] ^= val[b]
			}
			if t.pure(ci) {
				queue = append(queue, ci)
			}
		}
		if dir > 0 {
			added = append(added, KVPair{Key: key})
		} else {
			removed = append(removed, KVPair{Key: key})
		}
	}
	windows(added, addedVals, w)
	windows(removed, removedVals, w)
	for i := range t.counts {
		if t.counts[i] != 0 || t.keySums[i] != 0 {
			return added, removed, ErrKVPartial
		}
	}
	return added, removed, nil
}

// windows hands pair i the i-th w-byte window of vals, capacity-capped
// so an append to one value cannot overwrite the next.
func windows(pairs []KVPair, vals []byte, w int) {
	for i := range pairs {
		pairs[i].Value = vals[i*w : (i+1)*w : (i+1)*w]
	}
}

func (t *KVTable) pure(i int) bool {
	if t.counts[i] != 1 && t.counts[i] != -1 {
		return false
	}
	return t.check.Hash(t.keySums[i]) == t.checkSums[i]
}

// Encode serializes the table.
func (t *KVTable) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(t.q))
	e.WriteUvarint(uint64(t.cellsPerQ))
	e.WriteUvarint(uint64(t.valBytes))
	for i := range t.counts {
		e.WriteVarint(t.counts[i])
		e.WriteUint64(t.keySums[i])
		e.WriteUint64(t.checkSums[i])
		e.WriteBitString(t.valSums[i*t.valBytes:(i+1)*t.valBytes], int64(t.valBytes)*8)
	}
}

// DecodeKVFrom deserializes a table built with the same seed.
func DecodeKVFrom(d *transport.Decoder, seed uint64) (*KVTable, error) {
	q, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	cellsPerQ, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	valBytes, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if q < 2 || q > 16 || cellsPerQ == 0 || cellsPerQ > 1<<30 || valBytes > 1<<20 {
		return nil, fmt.Errorf("iblt: implausible kv geometry q=%d cells/q=%d val=%dB", q, cellsPerQ, valBytes)
	}
	// Every encoded cell costs at least 17 + valBytes bytes (count
	// varint, two 64-bit sums, the value), so a table the rest of the
	// frame cannot hold is rejected before its cells are allocated, as
	// in DecodeFrom. The product stays below 2^55: no overflow.
	if cells := q * cellsPerQ; cells*(17+valBytes) > uint64(d.Remaining()) {
		return nil, fmt.Errorf("iblt: kv table of %d cells of %dB values exceeds remaining frame (%d bytes)",
			cells, valBytes, d.Remaining())
	}
	t := NewKV(int(q*cellsPerQ), int(q), int(valBytes), seed)
	for i := range t.counts {
		if t.counts[i], err = d.ReadVarint(); err != nil {
			return nil, err
		}
		if t.keySums[i], err = d.ReadUint64(); err != nil {
			return nil, err
		}
		if t.checkSums[i], err = d.ReadUint64(); err != nil {
			return nil, err
		}
		if err := d.ReadBitString(t.valSums[i*t.valBytes:(i+1)*t.valBytes], int64(t.valBytes)*8); err != nil {
			return nil, err
		}
	}
	return t, nil
}

package iblt

import (
	"errors"
	"fmt"

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
type KVTable struct{ exact }

// NewKV creates a key-value IBLT with at least m cells, q hash functions
// and valBytes bytes of value per pair. Parties must share seed.
func NewKV(m, q, valBytes int, seed uint64) *KVTable {
	if valBytes < 0 {
		panic("iblt: negative value size")
	}
	return &KVTable{newExact(m, q, valBytes, seed)}
}

// ValBytes returns the fixed value size.
func (t *KVTable) ValBytes() int { return t.w }

// Insert adds a pair. val must have length ValBytes.
func (t *KVTable) Insert(key uint64, val []byte) { t.updateKV(key, val, 1) }

// Delete removes a pair.
func (t *KVTable) Delete(key uint64, val []byte) { t.updateKV(key, val, -1) }

func (t *KVTable) updateKV(key uint64, val []byte, dir int64) {
	if len(val) != t.w {
		panic(fmt.Sprintf("iblt: value size %d, table expects %d", len(val), t.w))
	}
	t.update(key, t.lay.Check.Hash(key), val, dir)
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
	p := peeler{list: true}
	if _, ok := p.decode(&t.exact); !ok {
		err = ErrKVPartial
	}
	return pairs(p.keys[0], p.values[0], t.w), pairs(p.keys[1], p.values[1], t.w), err
}

// pairs pairs key i with the i-th w-byte window of vals, capacity-capped
// so an append to one value cannot overwrite the next.
func pairs(keys []uint64, vals []byte, w int) []KVPair {
	if len(keys) == 0 {
		return nil
	}
	out := make([]KVPair, len(keys))
	for i, key := range keys {
		out[i] = KVPair{Key: key, Value: vals[i*w : (i+1)*w : (i+1)*w]}
	}
	return out
}

// Encode serializes the table.
func (t *KVTable) Encode(e *transport.Encoder) {
	e.WriteUvarint(uint64(t.lay.Q()))
	e.WriteUvarint(uint64(t.lay.Cells() / t.lay.Q()))
	e.WriteUvarint(uint64(t.w))
	for i := range t.cells {
		e.WriteVarint(t.cells[i].Count)
		e.WriteUint64(t.cells[i].KeySum)
		e.WriteUint64(t.cells[i].CheckSum)
		e.WriteBitString(t.row(i), int64(t.w)*8)
	}
}

// DecodeKVFrom deserializes a table built with the same seed.
func DecodeKVFrom(d *transport.Decoder, seed uint64) (*KVTable, error) {
	q, cellsPerQ, valBytes, err := readGeometry(d, true)
	if err != nil {
		return nil, err
	}
	t := NewKV(q*cellsPerQ, q, valBytes, seed)
	for i := range t.cells {
		c := &t.cells[i]
		if c.Count, err = d.ReadVarint(); err != nil {
			return nil, err
		}
		if c.KeySum, err = d.ReadUint64(); err != nil {
			return nil, err
		}
		if c.CheckSum, err = d.ReadUint64(); err != nil {
			return nil, err
		}
		if err := d.ReadBitString(t.row(i), int64(t.w)*8); err != nil {
			return nil, err
		}
	}
	return t, nil
}

package iblt

import (
	"runtime"
	"testing"

	"repro/internal/transport"
)

const fuzzKVSeed = 0x6b76

// decodeKVMeasured decodes data and reports the bytes the decoder
// allocated. The byte count is process-wide, so other goroutines (the
// fuzzing engine's) can only add to it: the least of three identical
// decodes is the decoder's own.
func decodeKVMeasured(data []byte) (tb *KVTable, alloc uint64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		tb, err = DecodeKVFrom(transport.NewDecoder(data), fuzzKVSeed)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < alloc {
			alloc = got
		}
	}
	return tb, alloc, err
}

// rejectAllocBound is what decoding a rejected input of n bytes may
// allocate: the cells the frame could hold (24 + valBytes bytes of
// table per cell of at least 17 + valBytes wire bytes) plus a constant.
func rejectAllocBound(n int) uint64 { return 2*uint64(n) + 4096 }

// TestKVDecodeFromBoundsCells: a header claiming more cells than the
// rest of the frame can encode is rejected before the table is built,
// so a few hostile bytes do not reserve the 68 MB this one claims.
func TestKVDecodeFromBoundsCells(t *testing.T) {
	e := transport.NewEncoder()
	e.WriteUvarint(2)       // q
	e.WriteUvarint(1 << 15) // cells per q
	e.WriteUvarint(1024)    // value bytes
	e.WriteUint64(0)
	data, _ := e.Pack()
	_, alloc, err := decodeKVMeasured(data)
	if err == nil {
		t.Fatalf("table of 65536 cells accepted from a %d-byte frame", len(data))
	}
	if bound := rejectAllocBound(len(data)); alloc > bound {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes, bound %d", len(data), alloc, bound)
	}
}

// FuzzDecodeKV drives the KV table decoder setsets runs on a peer's
// round-2 frame. A rejected input allocates no more than its length
// allows; an accepted table takes values of its own width and peels to
// a verdict without panicking. (A width other than the caller's is the
// caller's to reject, as setsets does.)
func FuzzDecodeKV(f *testing.F) {
	for _, valBytes := range []int{0, 1, 4} {
		tb := NewKV(6, 3, valBytes, fuzzKVSeed)
		tb.Insert(7, make([]byte, valBytes))
		e := transport.NewEncoder()
		tb.Encode(e)
		data, _ := e.Pack()
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, alloc, err := decodeKVMeasured(data)
		if err != nil {
			if bound := rejectAllocBound(len(data)); alloc > bound {
				t.Fatalf("rejecting a %d-byte input allocated %d bytes, bound %d", len(data), alloc, bound)
			}
			return
		}
		tb.Delete(7, make([]byte, tb.ValBytes()))
		added, removed, _ := tb.Decode()
		for _, kv := range append(added, removed...) {
			if len(kv.Value) != tb.ValBytes() {
				t.Fatalf("peeled a %d-byte value from a table of %d-byte values", len(kv.Value), tb.ValBytes())
			}
		}
	})
}

package iblt

import "testing"

func benchKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 2654435761
	}
	return keys
}

// BenchmarkNewFromKeys tracks the bulk table builder's allocation
// discipline (batched checksum hashing, one flat cell array).
func BenchmarkNewFromKeys(b *testing.B) {
	keys := benchKeys(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFromKeys(CellsForDiff(128, 3), 3, uint64(i)+1, keys)
	}
}

// BenchmarkNewStrataFromKeys tracks the estimator builder.
func BenchmarkNewStrataFromKeys(b *testing.B) {
	keys := benchKeys(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewStrataFromKeys(80, uint64(i)+1, keys)
	}
}

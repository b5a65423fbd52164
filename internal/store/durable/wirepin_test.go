package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/transport"
)

// TestRecordFramePinned pins the SHA-256 of one framed journal record
// (length, CRC and payload), so a codec change that would make existing
// journals unreadable fails here. The value was captured once.
func TestRecordFramePinned(t *testing.T) {
	const want = "8cee92da1caaf395d1c33343af7fdf738839e1ccdbbc9d255cda6805d53c5481"
	e := transport.NewEncoder()
	encodeRecord(e, 1<<40+7, []live.Op{
		{Point: metric.Point{5, -6, 70000}},
		{Remove: true, Point: metric.Point{1, 2, 3}},
		{Point: metric.Point{-1 << 31, 1<<31 - 1, 0}},
	})
	payload, _ := e.Pack()
	frame := appendFrame(nil, payload)
	transport.Recycle(e, payload)
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("journal record frame SHA-256 %s, pinned %s", got, want)
	}
}

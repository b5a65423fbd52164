package session

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzAddr is the synthetic peer address of a fuzzed carrier.
type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz-peer" }

// fuzzCarrierConn replays a captured inbound byte stream as one side of
// a carrier connection; outbound writes vanish.
type fuzzCarrierConn struct{ r io.Reader }

func (c fuzzCarrierConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c fuzzCarrierConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c fuzzCarrierConn) Close() error                     { return nil }
func (c fuzzCarrierConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c fuzzCarrierConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c fuzzCarrierConn) SetDeadline(time.Time) error      { return nil }
func (c fuzzCarrierConn) SetReadDeadline(time.Time) error  { return nil }
func (c fuzzCarrierConn) SetWriteDeadline(time.Time) error { return nil }

// muxFrame encodes one carrier frame the way appendMuxFrame does, for
// seeding the fuzz corpus with well-formed and near-well-formed inputs.
func muxFrame(id, kind uint64, data []byte) []byte {
	b := []byte{0, 0, 0, 0}
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, kind)
	if kind == muxFrameData {
		b = binary.AppendUvarint(b, uint64(len(data)))
		b = append(b, data...)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func muxFuzzSeeds() map[string][]byte {
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	return map[string][]byte{
		// A clean little session: open, two data chunks, close.
		"valid-session": cat(
			muxFrame(1, muxFrameOpen, nil),
			muxFrame(1, muxFrameData, []byte("hello")),
			muxFrame(1, muxFrameData, []byte("world")),
			muxFrame(1, muxFrameClose, nil),
		),
		// Two interleaved streams (the pipelined shape).
		"interleaved": cat(
			muxFrame(1, muxFrameOpen, nil),
			muxFrame(2, muxFrameOpen, nil),
			muxFrame(1, muxFrameData, []byte("a")),
			muxFrame(2, muxFrameData, []byte("b")),
			muxFrame(2, muxFrameClose, nil),
			muxFrame(1, muxFrameClose, nil),
		),
		// Hostile headers the demux must reject without allocating.
		"stream-zero":      muxFrame(0, muxFrameData, []byte("x")),
		"unknown-kind":     muxFrame(1, 7, nil),
		"data-unopened":    muxFrame(3, muxFrameData, []byte("x")),
		"reopen":           cat(muxFrame(2, muxFrameOpen, nil), muxFrame(1, muxFrameOpen, nil)),
		"open-trailing":    cat(muxFrame(1, muxFrameOpen, nil)[:4+2], []byte{0xff, 0xff}),
		"length-overrun":   append([]byte{0, 0, 0, 5, 0x01, 0x00, 0xff}, 0, 0),
		"length-underrun":  append([]byte{0, 0, 0, 6, 0x01, 0x00, 0x01}, 'x', 'y', 'z'),
		"giant-frame":      {0xff, 0xff, 0xff, 0xff},
		"truncated-header": {0x00, 0x00},
		"truncated-frame":  {0x00, 0x00, 0x01, 0x00, 0x01},
	}
}

// FuzzMuxFrames hardens the v3 carrier demux: an arbitrary inbound byte
// stream — a hostile or corrupted peer — must terminate the read loop
// with a terminal carrier error, never panic, deliver streams with
// strictly increasing IDs, and never buffer past the per-stream cap.
// The checked-in corpus (testdata/fuzz/FuzzMuxFrames) seeds clean
// sessions, interleaved streams, and each rejection path; CI runs the
// fuzzer briefly on top.
func FuzzMuxFrames(f *testing.F) {
	for _, seed := range muxFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Accepting side: peer-opened streams are surfaced via onStream.
		var streams []*muxStream
		var lastID uint64
		m := newMuxConn(fuzzCarrierConn{bytes.NewReader(data)}, func(st *muxStream) {
			if st.id <= lastID {
				t.Fatalf("stream %d delivered after %d", st.id, lastID)
			}
			lastID = st.id
			streams = append(streams, st)
		})
		m.readLoop()
		if m.alive() {
			t.Fatal("read loop returned with the carrier still alive")
		}
		for _, st := range streams {
			st.mu.Lock()
			if st.buf.Len() > maxMuxBuffer {
				t.Fatalf("stream %d buffered %d bytes past the cap", st.id, st.buf.Len())
			}
			st.mu.Unlock()
			st.Close() //nolint:errcheck
		}

		// Dialing side: the peer cannot open streams at all, so the same
		// bytes must at most close/feed locally opened stream 1.
		md := newMuxConn(fuzzCarrierConn{bytes.NewReader(data)}, nil)
		st, err := md.OpenStream()
		if err != nil {
			t.Fatalf("open on fresh carrier: %v", err)
		}
		md.readLoop()
		if md.alive() {
			t.Fatal("dialing read loop returned with the carrier still alive")
		}
		st.Close() //nolint:errcheck
	})
}

// TestGenerateMuxFuzzCorpus regenerates the checked-in seed corpus
// under testdata/fuzz (run with GEN_FUZZ_CORPUS=1; skipped otherwise),
// so CI's brief -fuzz runs start from meaningful inputs even on a cold
// fuzz cache.
func TestGenerateMuxFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMuxFrames")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range muxFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

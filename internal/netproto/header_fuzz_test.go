package netproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// frameHello encodes a well-formed hello frame (length prefix included)
// for seeding the fuzz corpus.
func frameHello(h Hello) []byte {
	var buf bytes.Buffer
	if err := SendHello(NewWire(&buf), h); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// frame wraps raw payload bytes in the 4-byte length prefix.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// readOnly adapts a reader to the Wire's io.ReadWriter (writes vanish).
type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }

// FuzzReadHello hardens the session-header parser: arbitrary bytes must
// produce either a clean error or a Hello that survives a re-encode /
// re-read round trip unchanged. The checked-in corpus
// (testdata/fuzz/FuzzReadHello) covers default-set and named-set
// hellos, retired version-1 frames, junk magic, bad versions, oversized
// namespaces, and truncated frames; CI runs the fuzzer briefly on top.
func FuzzReadHello(f *testing.F) {
	// Valid default-set hellos.
	f.Add(frameHello(Hello{Proto: ProtoEMD, Role: RoleAlice, Digest: 0xdeadbeef}))
	f.Add(frameHello(Hello{Proto: ProtoProbe, Role: RoleBob, Digest: 0}))
	// Valid named-set hellos.
	f.Add(frameHello(Hello{Proto: ProtoLiveEMD, Role: RoleAlice, Digest: 1, Set: "tenant-a"}))
	f.Add(frameHello(Hello{Proto: ProtoRepair, Role: RoleAlice, Digest: 42, Set: strings.Repeat("n", 255)}))
	// Valid carrier hello (magic + version 3, nothing else), and a
	// carrier frame with trailing bytes (must be rejected).
	f.Add(frameHello(Hello{Mux: true}))
	f.Add(frame(append(frameHello(Hello{Mux: true})[4:], 0x01)))
	// Junk: bad magic, empty frame, garbage payload.
	f.Add(frame([]byte("GARBAGE?")))
	f.Add(frame(nil))
	f.Add([]byte("\x00\x00\x00\x04RSYN"))
	// Truncated: header cut mid-frame, length prefix promising more
	// than arrives, bare prefix.
	f.Add(frameHello(Hello{Proto: ProtoGap, Role: RoleBob, Digest: 7})[:6])
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x52})
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWire(readOnly{bytes.NewReader(data)})
		h, err := ReadHello(w)
		if err != nil {
			return // rejected cleanly
		}
		// Parsed hellos must satisfy the documented invariants...
		if h.Mux {
			// A carrier hello names no session: every session field
			// must be zero (the stream hellos that follow carry them).
			if h.Proto != 0 || h.Role != 0 || h.Digest != 0 || h.Set != "" {
				t.Fatalf("carrier hello with session fields: %+v", h)
			}
		} else {
			if h.Proto == 0 {
				t.Fatalf("accepted proto 0: %+v", h)
			}
			if h.Role != RoleAlice && h.Role != RoleBob {
				t.Fatalf("accepted bad role: %+v", h)
			}
			if !ValidSetName(h.Set) {
				t.Fatalf("accepted invalid set name %q", h.Set)
			}
		}
		// ...and round-trip bit-exactly through SendHello/ReadHello.
		var buf bytes.Buffer
		if err := SendHello(NewWire(&buf), h); err != nil {
			t.Fatalf("re-encode of accepted hello %+v: %v", h, err)
		}
		h2, err := ReadHello(NewWire(readOnly{&buf}))
		if err != nil {
			t.Fatalf("re-read of accepted hello %+v: %v", h, err)
		}
		if h2 != h {
			t.Fatalf("round trip changed hello: %+v → %+v", h, h2)
		}
	})
}

// FuzzReadAccept drives the accept-frame parser the same way.
func FuzzReadAccept(f *testing.F) {
	mk := func(st Status, digest uint64) []byte {
		var buf bytes.Buffer
		w := NewWire(&buf)
		if err := SendAccept(w, st, digest); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	f.Add(mk(StatusOK, 0xfeed))
	f.Add(mk(StatusUnknownSet, 0))
	f.Add(frame([]byte{0xff, 0xff, 0xff, 0xff, 0xff}))
	f.Add(frame(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWire(readOnly{bytes.NewReader(data)})
		st, digest, err := ReadAccept(w)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SendAccept(NewWire(&buf), st, digest); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		st2, digest2, err := ReadAccept(NewWire(readOnly{&buf}))
		if err != nil || st2 != st || digest2 != digest {
			t.Fatalf("round trip changed accept: %v/%#x → %v/%#x (%v)", st, digest, st2, digest2, err)
		}
	})
}

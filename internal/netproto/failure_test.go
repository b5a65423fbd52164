package netproto

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/metric"
)

// failureHandlers returns one handler per (protocol, role) across the
// frozen-set protocols and repair, bound to small valid fixtures — the
// matrix the disconnect and truncation tests run over.
func failureHandlers(t *testing.T) map[string]Handler {
	t.Helper()
	space := metric.HammingCube(64)
	emdP := emd.Params{Space: space, N: 8, K: 2, D1: 2, D2: 64, Seed: 3}
	gapP := gap.Params{Space: space, N: 8, R1: 2, R2: 16, Seed: 4}
	pts := make(metric.PointSet, 8)
	for i := range pts {
		pt := make(metric.Point, space.Dim)
		pt[i] = 1
		pts[i] = pt
	}
	ls := newSyncSet(t, space, pts, 5)
	repairInit, err := NewRepairInitiator(ls, 0)
	if err != nil {
		t.Fatal(err)
	}
	repairResp, err := NewRepairResponderFactory(ls)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Handler{
		"emd/alice":    NewEMDSender(emdP, pts),
		"emd/bob":      NewEMDReceiver(emdP, pts),
		"gap/alice":    NewGapSender(gapP, pts),
		"gap/bob":      NewGapReceiver(gapP, pts),
		"repair/alice": repairInit,
		"repair/bob":   repairResp(),
	}
}

// run executes the handler in its natural direction (alice initiates,
// bob responds) and reports the error, guarding against hangs.
func runWithDeadline(t *testing.T, name string, h Handler, conn net.Conn) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		var err error
		if h.Role() == RoleAlice {
			_, err = RunInitiator(conn, h)
		} else {
			_, err = RunResponder(conn, h)
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: handler hung on broken peer", name)
		return nil
	}
}

// readFrame consumes one length-prefixed frame from the raw stream.
func readFrame(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading peer frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("reading peer frame payload: %v", err)
	}
	return buf
}

// TestMidHandshakeDisconnect: for every protocol and both roles, a peer
// that drops the connection mid-handshake — after reading the hello
// without answering (alice side), or before sending any hello (bob
// side) — must surface a prompt error, never a hang or panic.
func TestMidHandshakeDisconnect(t *testing.T) {
	for name, h := range failureHandlers(t) {
		t.Run(name, func(t *testing.T) {
			local, peer := duplex()
			defer local.Close()
			go func() {
				if h.Role() == RoleAlice {
					// Read the initiator's hello, then vanish without
					// an accept frame.
					readFrame(t, peer)
				}
				peer.Close()
			}()
			err := runWithDeadline(t, name, h, local)
			if err == nil {
				t.Fatal("mid-handshake disconnect not reported")
			}
		})
	}
}

// TestShortReadHeaderTruncation: the peer answers with a frame whose
// length prefix promises more bytes than it delivers before closing.
// Both roles of every protocol must fail with a payload read error,
// not a hang or a misparsed header.
func TestShortReadHeaderTruncation(t *testing.T) {
	truncated := func() []byte {
		// Header claims 64 payload bytes; only 5 follow.
		frame := make([]byte, 4+5)
		binary.BigEndian.PutUint32(frame, 64)
		copy(frame[4:], "RSYN?")
		return frame
	}
	for name, h := range failureHandlers(t) {
		t.Run(name, func(t *testing.T) {
			local, peer := duplex()
			defer local.Close()
			go func() {
				if h.Role() == RoleAlice {
					// Consume the hello so the initiator reaches its
					// accept read, then truncate the accept frame.
					readFrame(t, peer)
				}
				peer.Write(truncated()) //nolint:errcheck
				peer.Close()
			}()
			err := runWithDeadline(t, name, h, local)
			if err == nil {
				t.Fatal("truncated frame not reported")
			}
			if !strings.Contains(err.Error(), "recv payload") {
				t.Fatalf("want a payload read error, got: %v", err)
			}
		})
	}
}

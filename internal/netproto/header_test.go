package netproto

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/emd"
)

// TestHelloByteGolden pins the wire bytes of a session hello: magic,
// version 2, proto, role, 64-bit digest, and the set namespace — always
// written, empty for the default set.
func TestHelloByteGolden(t *testing.T) {
	got := frameHello(Hello{Proto: ProtoEMD, Role: RoleAlice, Digest: 0x0123456789abcdef})
	want := []byte{
		0x00, 0x00, 0x00, 0x10, // frame length 16
		0x52, 0x53, 0x59, 0x4e, // "RSYN"
		0x02,                   // version 2
		0x01,                   // proto emd
		0x00,                   // role alice
		0x01, 0x23, 0x45, 0x67, // digest (big-endian bit order)
		0x89, 0xab, 0xcd, 0xef,
		0x00, // set length 0: the default set
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hello bytes changed:\n got %x\nwant %x", got, want)
	}
}

func TestHelloV2RoundTrip(t *testing.T) {
	for _, set := range []string{"", "a", "tenant-a", strings.Repeat("x", 255)} {
		in := Hello{Proto: ProtoRepair, Role: RoleAlice, Digest: 42, Set: set}
		var buf bytes.Buffer
		if err := SendHello(NewWire(&buf), in); err != nil {
			t.Fatalf("send %q: %v", set, err)
		}
		out, err := ReadHello(NewWire(readOnly{&buf}))
		if err != nil {
			t.Fatalf("read %q: %v", set, err)
		}
		if out != in {
			t.Fatalf("round trip: %+v → %+v", in, out)
		}
	}
}

func TestHelloRejectsBadSetNames(t *testing.T) {
	var buf bytes.Buffer
	for _, set := range []string{"with\nnewline", strings.Repeat("x", 256)} {
		err := SendHello(NewWire(&buf), Hello{Proto: ProtoRepair, Role: RoleAlice, Set: set})
		if err == nil {
			t.Fatalf("SendHello accepted set %q", set)
		}
	}
	// The retired version-1 layout (no namespace field) is refused: a
	// session hello has exactly one spelling.
	raw := []byte{
		0x00, 0x00, 0x00, 0x0f, // frame length 15
		0x52, 0x53, 0x59, 0x4e, // "RSYN"
		0x01,                   // version 1
		0x03,                   // proto 3
		0x00,                   // role alice
		0, 0, 0, 0, 0, 0, 0, 0, // digest
	}
	h, err := ReadHello(NewWire(readOnly{bytes.NewReader(raw)}))
	if err == nil {
		t.Fatalf("version-1 hello accepted: %+v", h)
	}
}

func TestTwoPartyAcceptRejectsNamedSet(t *testing.T) {
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		w := NewWire(a)
		errc <- InitiateSet(w, NewEMDReceiver(emd.DefaultParams(emdSpace(), 8, 2, 1), nil), "tenant")
	}()
	err2 := Accept(NewWire(b), NewEMDSender(emd.DefaultParams(emdSpace(), 8, 2, 1), nil))
	err1 := <-errc
	if err1 == nil || !strings.Contains(err1.Error(), "unknown set") {
		t.Fatalf("initiator error = %v, want unknown-set rejection", err1)
	}
	if err2 == nil {
		t.Fatal("two-party Accept served a named set")
	}
}

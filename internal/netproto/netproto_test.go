package netproto

import (
	"fmt"
	"math"
	"net"
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/transport"
	"repro/internal/workload"
)

// duplex returns two connected byte streams (full duplex, blocking).
func duplex() (net.Conn, net.Conn) { return net.Pipe() }

func TestWireFrameRoundTrip(t *testing.T) {
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	wa, wb := NewWire(a), NewWire(b)
	errc := make(chan error, 1)
	go func() {
		e := transport.NewEncoder()
		e.WriteUvarint(12345)
		e.WriteBytes([]byte("hello"))
		errc <- wa.Send(e)
	}()
	d, err := wb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadUvarint(); v != 12345 {
		t.Errorf("uvarint = %d", v)
	}
	if p, _ := d.ReadBytes(); string(p) != "hello" {
		t.Errorf("bytes = %q", p)
	}
	if wa.Stats().MsgsAtoB != 1 || wb.Stats().MsgsBtoA != 1 {
		t.Errorf("stats: %v / %v", wa.Stats(), wb.Stats())
	}
}

func TestWireMaxPayloadTracking(t *testing.T) {
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	wa, wb := NewWire(a), NewWire(b)
	if got := wa.Stats().MaxPayload(); got != 0 {
		t.Fatalf("fresh wire MaxPayload = %d, want 0", got)
	}
	// Frames of 2, 40, then 8 bytes: the maximum must stick at the
	// largest single frame on both endpoints, not follow the last one.
	for _, n := range []int{2, 40, 8} {
		errc := make(chan error, 1)
		go func() {
			e := transport.NewEncoder()
			e.WriteBytes(make([]byte, n))
			errc <- wa.Send(e)
		}()
		if _, err := wb.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// 40 payload bytes plus the encoder's length prefix; assert the
	// sender and receiver agree and both exceed the largest payload.
	sent, recvd := wa.Stats().MaxPayload(), wb.Stats().MaxPayload()
	if sent != recvd {
		t.Errorf("sender MaxPayload %d != receiver %d", sent, recvd)
	}
	if sent < 40*8 {
		t.Errorf("MaxPayload = %d bits, want >= %d (largest frame)", sent, 40*8)
	}
	last := wa.Stats()
	if got := last.Add(transport.Stats{}).MaxPayload(); got != sent {
		t.Errorf("Add lost MaxPayload: %d != %d", got, sent)
	}
}

func TestHeaderDigestMismatch(t *testing.T) {
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunInitiator(a, NewEMDReceiver(emd.DefaultParams(emdSpace(), 8, 2, 111), nil))
		errc <- err
	}()
	_, err2 := RunResponder(b, NewEMDSender(emd.DefaultParams(emdSpace(), 8, 2, 222), nil))
	err1 := <-errc
	if err1 == nil || err2 == nil {
		t.Errorf("digest mismatch accepted: %v / %v", err1, err2)
	}
}

// TestRegisteredProtos pins the protocol table. No ID moves, and IDs 3
// and 4, once exact-ID sync and multiset-of-sets reconciliation as peer
// protocols, stay unused.
func TestRegisteredProtos(t *testing.T) {
	got := fmt.Sprint(Protos())
	if want := "[emd gap live-emd probe repair gossip]"; got != want {
		t.Errorf("registered protocols %s, want %s", got, want)
	}
	for id, name := range map[Proto]string{1: "emd", 3: "proto(3)", 4: "proto(4)", 7: "repair", 8: "gossip", 9: "proto(9)"} {
		if id.String() != name {
			t.Errorf("proto %d is %q, want %q", uint8(id), id.String(), name)
		}
	}
	for _, name := range []string{"sync", "setsets", ""} {
		if p, ok := ProtoByName(name); ok {
			t.Errorf("ProtoByName(%q) = %v, want no protocol", name, p)
		}
	}
	if p, ok := ProtoByName("live-emd"); !ok || p != ProtoLiveEMD {
		t.Errorf("ProtoByName(live-emd) = %v, %v", p, ok)
	}
}

func TestHeaderProtoMismatch(t *testing.T) {
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunInitiator(a, NewGapSender(gap.Params{Space: gapSpace(), N: 8, R1: 8, R2: 128, Seed: 1}, nil))
		errc <- err
	}()
	_, err2 := RunResponder(b, NewEMDReceiver(emd.DefaultParams(emdSpace(), 8, 2, 1), nil))
	err1 := <-errc
	if err1 == nil || err2 == nil {
		t.Errorf("protocol mismatch accepted: %v / %v", err1, err2)
	}
}

func TestEMDOverWire(t *testing.T) {
	space := emdSpace()
	const n, k = 32, 3
	inst := workload.NewEMDInstance(space, n, k, 2, 5)
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	p := emd.DefaultParams(space, n, k, 17)
	p.D1 = math.Max(1, emdK/4)
	p.D2 = math.Max(emdK*4, p.D1*2)

	a, b := duplex()
	defer a.Close()
	defer b.Close()
	aliceErr := make(chan error, 1)
	go func() {
		aliceErr <- EMDAlice(a, p, inst.SA)
	}()
	res, err := EMDBob(b, p, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-aliceErr; err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Skip("protocol failure (allowed with prob <= 1/8)")
	}
	if len(res.SPrime) != n {
		t.Fatalf("|S'B| = %d", len(res.SPrime))
	}
	after := matching.EMD(space, inst.SA, res.SPrime)
	if after > 20*math.Max(emdK, 1) {
		t.Errorf("EMD after wire run = %v vs EMD_k %v", after, emdK)
	}
	if res.Stats.BitsBtoA == 0 {
		t.Error("wire stats recorded no inbound traffic")
	}
}

func TestEMDWireParamMismatch(t *testing.T) {
	space := emdSpace()
	inst := workload.NewEMDInstance(space, 8, 1, 1, 3)
	pa := emd.DefaultParams(space, 8, 1, 10)
	pb := emd.DefaultParams(space, 8, 1, 11) // different seed
	a, b := duplex()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- EMDAlice(a, pa, inst.SA) }()
	_, bobErr := EMDBob(b, pb, inst.SB)
	aliceErr := <-errc
	if aliceErr == nil || bobErr == nil {
		t.Errorf("mismatched seeds not detected: %v / %v", aliceErr, bobErr)
	}
}

func TestGapOverWire(t *testing.T) {
	space := gapSpace()
	const n, k = 40, 3
	inst, err := workload.NewGapInstance(space, n, k, 1, 8, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := gap.Params{Space: space, N: n + k, R1: 8, R2: 128, Seed: 23}

	a, b := duplex()
	defer a.Close()
	defer b.Close()
	type aliceOut struct {
		rep gap.AliceReport
		err error
	}
	ac := make(chan aliceOut, 1)
	go func() {
		rep, err := GapAlice(a, p, inst.SA)
		ac <- aliceOut{rep, err}
	}()
	res, err := GapBob(b, p, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	arep := <-ac
	if arep.err != nil {
		t.Fatal(arep.err)
	}
	// The guarantee must hold across the wire exactly as in-process.
	for _, pt := range inst.SA {
		if d, _ := res.SPrime.MinDistanceTo(space, pt); d > 128 {
			t.Errorf("uncovered point at distance %v", d)
		}
	}
	if len(res.TA) != len(arep.rep.TA) {
		t.Errorf("Alice sent %d, Bob received %d", len(arep.rep.TA), len(res.TA))
	}
}

func emdSpace() metric.Space { return metric.HammingCube(128) }

func gapSpace() metric.Space { return metric.HammingCube(512) }

package emd

import (
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/workload"
)

// These tests inject wire-level faults: a robust library must turn any
// corrupted or truncated message into an error (or, for undetectable
// in-payload bit flips, at worst a reported protocol failure), never a
// panic and never a silently wrong success that violates size
// invariants.

func buildTestMessage(t *testing.T, seed uint64) (Params, []byte, int) {
	t.Helper()
	space := workloadSpace()
	const n, k = 16, 2
	inst := workload.NewEMDInstance(space, n, k, 1, seed)
	p := DefaultParams(space, n, k, seed+1)
	p.D1, p.D2 = 2, 64
	msg, err := BuildMessage(p, inst.SA)
	if err != nil {
		t.Fatal(err)
	}
	return p, msg, n
}

func TestApplyMessageTruncated(t *testing.T) {
	p, msg, n := buildTestMessage(t, 11)
	inst := workload.NewEMDInstance(p.Space, n, p.K, 1, 11)
	for _, cut := range []int{0, 1, len(msg) / 2, len(msg) - 1} {
		if _, err := ApplyMessage(p, inst.SB, msg[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestApplyMessageBitFlips(t *testing.T) {
	p, msg, n := buildTestMessage(t, 13)
	inst := workload.NewEMDInstance(p.Space, n, p.K, 1, 13)
	src := rng.New(17)
	for trial := 0; trial < 40; trial++ {
		corrupt := append([]byte(nil), msg...)
		pos := src.Intn(len(corrupt))
		corrupt[pos] ^= byte(1 << src.Intn(8))
		res, err := ApplyMessage(p, inst.SB, corrupt)
		if err != nil {
			continue // structural damage detected: fine
		}
		// A flip inside cell sums is undetectable at the wire layer; it
		// must surface as a protocol failure or a size-correct result.
		if !res.Failed && len(res.SPrime) != n {
			t.Fatalf("trial %d: corrupted message produced |S'B|=%d", trial, len(res.SPrime))
		}
	}
}

func TestApplyMessageGarbage(t *testing.T) {
	p, msg, n := buildTestMessage(t, 19)
	inst := workload.NewEMDInstance(p.Space, n, p.K, 1, 19)
	src := rng.New(23)
	garbage := make([]byte, len(msg))
	for i := range garbage {
		garbage[i] = byte(src.Uint64())
	}
	res, err := ApplyMessage(p, inst.SB, garbage)
	if err == nil && !res.Failed && len(res.SPrime) != n {
		t.Errorf("pure garbage produced |S'B|=%d without error or failure", len(res.SPrime))
	}
}

func TestBuildMessageDeterministic(t *testing.T) {
	p, msg1, _ := buildTestMessage(t, 29)
	_ = p
	_, msg2, _ := buildTestMessage(t, 29)
	if len(msg1) != len(msg2) {
		t.Fatalf("message sizes differ: %d vs %d", len(msg1), len(msg2))
	}
	for i := range msg1 {
		if msg1[i] != msg2[i] {
			t.Fatalf("messages differ at byte %d", i)
		}
	}
}

func TestMessageMatchesReconcile(t *testing.T) {
	// Split-party API must agree with the in-process driver bit for bit.
	space := workloadSpace()
	const n, k = 16, 2
	inst := workload.NewEMDInstance(space, n, k, 1, 31)
	p := DefaultParams(space, n, k, 37)
	p.D1, p.D2 = 2, 64
	msg, err := BuildMessage(p, inst.SA)
	if err != nil {
		t.Fatal(err)
	}
	viaMsg, err := ApplyMessage(p, inst.SB, msg)
	if err != nil {
		t.Fatal(err)
	}
	viaRec, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if viaMsg.Failed != viaRec.Failed || viaMsg.Level != viaRec.Level ||
		len(viaMsg.SPrime) != len(viaRec.SPrime) {
		t.Errorf("split-party run diverged: %+v vs %+v",
			viaMsg.Level, viaRec.Level)
	}
}

// TestOneShotStatsAgree: Reconcile, ApplyMessage and the four calls a
// wire deployment makes (BuildSketch, Encode, DecodeSketch, Apply) send
// the same message and reach the same output, and the two one-shot
// calls report the same Stats field by field: one round, the message's
// bits, and that message as the largest payload. Sketch.Apply carries
// no Stats (its callers count their own connection), so the four-call
// form is checked through its message bytes.
func TestOneShotStatsAgree(t *testing.T) {
	space := workloadSpace()
	const n, k = 16, 2
	inst := workload.NewEMDInstance(space, n, k, 1, 41)
	p := DefaultParams(space, n, k, 43)
	p.D1, p.D2 = 2, 64
	msg, err := BuildMessage(p, inst.SA)
	if err != nil {
		t.Fatal(err)
	}
	viaMsg, err := ApplyMessage(p, inst.SB, msg)
	if err != nil {
		t.Fatal(err)
	}
	viaRec, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSketch(p, inst.SA)
	if err != nil {
		t.Fatal(err)
	}
	skMsg := sk.Encode()
	rk, err := DecodeSketch(p, skMsg)
	if err != nil {
		t.Fatal(err)
	}
	viaSketch, err := rk.Apply(inst.SB)
	if err != nil {
		t.Fatal(err)
	}

	var want transport.Stats
	want.Rounds, want.BitsAtoB, want.MsgsAtoB = 1, int64(len(skMsg))*8, 1
	want.ObservePayload(want.BitsAtoB)
	for name, st := range map[string]transport.Stats{"Reconcile": viaRec.Stats, "ApplyMessage": viaMsg.Stats} {
		if st != want || st.MaxPayload() != want.MaxPayload() {
			t.Errorf("%s Stats %+v (max payload %d), want %+v (max payload %d)",
				name, st, st.MaxPayload(), want, want.MaxPayload())
		}
	}
	if want.MaxPayload() != int64(len(msg))*8 {
		t.Errorf("BuildMessage sent %d bytes, the sketch encodes %d", len(msg), len(skMsg))
	}
	viaSketch.Stats = want
	for name, res := range map[string]Result{"ApplyMessage": viaMsg, "four calls": viaSketch} {
		if !reflect.DeepEqual(res, viaRec) {
			t.Errorf("%s result differs from Reconcile's: level %d vs %d", name, res.Level, viaRec.Level)
		}
	}

	scaled, err := ReconcileScaled(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if st := scaled.Stats; st.Rounds != 1 || st.MaxPayload() <= 0 || st.MaxPayload() > st.TotalBits() {
		t.Errorf("ReconcileScaled Stats %+v, max payload %d", st, st.MaxPayload())
	}
}

func workloadSpace() metric.Space { return metric.HammingCube(64) }

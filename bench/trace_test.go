package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},  // 0: children cover [10,60) and [80,120) clipped to 100
		{Name: "emd.build", Start: 10, End: 50, Parent: 0},  // 1: child covers [20,30)
		{Name: "riblt.x", Start: 20, End: 30, Parent: 1},    // 2: leaf
		{Name: "emd.apply", Start: 40, End: 60, Parent: 0},  // 3: overlaps span 1 on [40,50)
		{Name: "emd.late", Start: 80, End: 120, Parent: 0},  // 4: outlives its parent
		{Name: "emd.orphan", Start: 5, End: 9, Parent: -1},  // 5: a second root
		{Name: "wait.recv", Start: 41, End: 45, Parent: 3},  // 6
		{Name: "wait.recv", Start: 50, End: 55, Parent: 3},  // 7
		{Name: "bad.parent", Start: 0, End: 1, Parent: 999}, // 8: parent out of range is a root
	}
	want := []int64{100 - 50 - 20, 40 - 10, 10, 20 - 9, 40, 4, 4, 5, 1}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

// Without overlap a span's blocking share is its self time; with
// overlap, busy spans split the overlapped stretch, and waits only get
// time while nothing else runs. Shares of one op add up to its wall
// time.
func TestBlockingShares(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "gap.alice", Start: 0, End: 100, Parent: 0, Op: 1},
		{Name: "gap.bob", Start: 0, End: 90, Parent: 0, Op: 1},
		{Name: "wait.recv", Start: 30, End: 70, Parent: 1, Op: 1}, // alice waits while bob works
		{Name: "wait.recv", Start: 60, End: 90, Parent: 2, Op: 1}, // bob waits; [60,70) both wait
		{Name: "bench.op", Start: 200, End: 230, Parent: -1, Op: 2},
		{Name: "emd.build", Start: 205, End: 225, Parent: 5, Op: 2},
	}
	got := blockingShares(spans)
	// op 1: [0,30) alice+bob split 15/15; [30,60) bob alone 30; [60,70)
	// both wait, 5 each; [70,90) alice alone 20; [90,100) alice alone 10.
	want := []float64{0, 15 + 20 + 10, 15 + 30, 5, 5, 10, 20}
	var op1 float64
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d (%s): share %g, want %g", i, spans[i].Name, got[i], want[i])
		}
		if spans[i].Op == 1 {
			op1 += got[i]
		}
	}
	if math.Abs(op1-100) > 1e-9 {
		t.Errorf("op 1 shares add up to %g, want its wall time 100", op1)
	}
	self := selfTimes(spans)
	for _, i := range []int{5, 6} {
		if float64(self[i]) != got[i] {
			t.Errorf("span %d: without overlap share %g should equal self time %d", i, got[i], self[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", noSpan, 0)
	tr.end(id)
	if id != noSpan || tr.snapshot() != nil {
		t.Fatal("nil tracer must be inert")
	}
	if layerOf("netproto.responder.probe") != "netproto" || layerOf("plain") != "plain" {
		t.Fatal("layerOf")
	}
}

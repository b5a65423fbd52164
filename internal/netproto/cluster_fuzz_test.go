package netproto

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iblt"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/transport"
)

// Fuzz targets for the cluster anti-entropy frame readers (probe =
// proto 6, repair = proto 7). The hello/accept parsers were fuzzed in
// an earlier pass; these cover the payload readers a hostile or
// corrupted peer feeds after a successful handshake: the probe summary
// (with its embedded strata estimator) and the repair session's point
// and ID lists, whose counts and dimensions are peer-supplied and must
// never turn into unbounded allocations or panics.

const fuzzStrataSeed = 0xf00d

// fuzzLocalSummary is the local side's summary the probe decoders
// compare peer strata against.
func fuzzLocalSummary() ProbeSummary {
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: fuzzStrataSeed}},
		metric.PointSet{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		panic(err)
	}
	return summaryOf(ls.Snapshot())
}

// fuzzSummaryBytes encodes a valid probe summary frame payload; with
// strata, its strata bits equal fuzzLocalSummary's.
func fuzzSummaryBytes(withStrata bool) []byte {
	s := fuzzLocalSummary()
	if !withStrata {
		s.Strata = nil
	}
	return reencodeSummary(s)
}

// fuzzSummaryFlippedStrata is fuzzSummaryBytes(true) with the low bit
// of the strata's last byte flipped: the last checksum's final uvarint
// group changes value, so the strata still decodes, but no longer
// equals the local one.
func fuzzSummaryFlippedStrata() []byte {
	s := fuzzLocalSummary()
	s.strataWire = append([]byte(nil), s.strataWire...)
	s.strataWire[len(s.strataWire)-1] ^= 0x01
	return reencodeSummary(s)
}

// reencodeSummary packs a summary back to wire bytes.
func reencodeSummary(s ProbeSummary) []byte {
	e := transport.NewEncoder()
	encodeSummary(e, s)
	data, _ := e.Pack()
	return append([]byte(nil), data...)
}

// FuzzProbeSummary hardens the probe-frame reader: arbitrary bytes must
// either fail cleanly or decode to a summary that survives an
// encode/decode round trip bit-identically (strata cells included).
// Every input is decoded twice, against a real local summary (so strata
// bits equal to it take the no-decode shortcut) and against none (a
// full decode); both must accept or reject alike and re-encode to the
// same bytes.
func FuzzProbeSummary(f *testing.F) {
	local := fuzzLocalSummary()
	f.Add(fuzzSummaryBytes(true))
	f.Add(fuzzSummaryBytes(false))
	f.Add(fuzzSummaryFlippedStrata())
	f.Add([]byte{})
	f.Add([]byte{0x00})
	// Uvarint distinct-count bomb: epoch 0 then 2^60.
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10})
	f.Add(fuzzSummaryBytes(true)[:9])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSummary(transport.NewDecoder(data), fuzzStrataSeed, local)
		full, fullErr := decodeSummary(transport.NewDecoder(data), fuzzStrataSeed, ProbeSummary{})
		if (err == nil) != (fullErr == nil) {
			t.Fatalf("shortcut decode err = %v, full decode err = %v", err, fullErr)
		}
		if err != nil {
			return // rejected cleanly
		}
		if s.Distinct < 0 {
			t.Fatalf("accepted negative distinct count: %+v", s)
		}
		enc1 := reencodeSummary(s)
		if encFull := reencodeSummary(full); !bytes.Equal(enc1, encFull) {
			t.Fatalf("shortcut and full decodes re-encode differently:\n%x\n%x", enc1, encFull)
		}
		s2, err := decodeSummary(transport.NewDecoder(enc1), fuzzStrataSeed, local)
		if err != nil {
			t.Fatalf("re-decode of accepted summary failed: %v", err)
		}
		enc2 := reencodeSummary(s2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("summary round trip not stable:\n%x\n%x", enc1, enc2)
		}
	})
}

// fuzzRepairAckBytes encodes the repair ack-frame tail the responder
// reads: ID list + point list (the ok bool is consumed before these
// readers run, so it is not part of the fuzzed payload).
func fuzzRepairAckBytes(ids []uint64, pts metric.PointSet) []byte {
	e := transport.NewEncoder()
	e.WriteUvarint(uint64(len(ids)))
	for _, id := range ids {
		e.WriteUint64(id)
	}
	writePointList(e, pts)
	data, _ := e.Pack()
	return append([]byte(nil), data...)
}

// FuzzRepairFrames hardens the repair payload readers, readIDList and
// readPointList, driven in the same order the responder consumes them.
// Accepted payloads must round-trip: re-encoding the decoded IDs and
// points must reproduce a parseable, value-identical payload.
func FuzzRepairFrames(f *testing.F) {
	f.Add(fuzzRepairAckBytes([]uint64{1, 2, 3}, metric.PointSet{{1, 2}, {3, 4}}))
	f.Add(fuzzRepairAckBytes(nil, nil))
	f.Add(fuzzRepairAckBytes([]uint64{0xffffffffffffffff}, metric.PointSet{{-1, -2, -3}}))
	// Count bombs: huge ID count, huge point count, huge dimension.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x00, 0x01, 0xff, 0xff, 0xff, 0x7f})
	f.Add(fuzzRepairAckBytes([]uint64{7}, metric.PointSet{{9}})[:3])

	f.Fuzz(func(t *testing.T, data []byte) {
		d := transport.NewDecoder(data)
		ids, err := readIDList(d)
		if err != nil {
			return
		}
		pts, err := readPointList(d)
		if err != nil {
			return
		}
		if len(ids) > maxFrame/8 || len(pts) > maxFrame/2 {
			t.Fatalf("accepted implausible sizes: %d ids, %d points", len(ids), len(pts))
		}
		for _, pt := range pts {
			if len(pt) > 1<<20 {
				t.Fatalf("accepted implausible dimension %d", len(pt))
			}
		}
		enc := fuzzRepairAckBytes(ids, pts)
		d2 := transport.NewDecoder(enc)
		ids2, err := readIDList(d2)
		if err != nil {
			t.Fatalf("re-decode ids: %v", err)
		}
		pts2, err := readPointList(d2)
		if err != nil {
			t.Fatalf("re-decode points: %v", err)
		}
		if fmt.Sprint(ids) != fmt.Sprint(ids2) {
			t.Fatalf("id round trip changed: %v -> %v", ids, ids2)
		}
		if len(pts) != len(pts2) {
			t.Fatalf("point count changed: %d -> %d", len(pts), len(pts2))
		}
		for i := range pts {
			if !pts[i].Equal(pts2[i]) {
				t.Fatalf("point %d changed: %v -> %v", i, pts[i], pts2[i])
			}
		}
	})
}

// FuzzDecodeStrata drives the standalone strata decoder the probe and
// repair paths share (a malformed estimator must not panic the
// Estimate call either).
func FuzzDecodeStrata(f *testing.F) {
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: fuzzStrataSeed}},
		metric.PointSet{{1}, {2}, {3}, {4}})
	if err != nil {
		f.Fatal(err)
	}
	snap := ls.Snapshot()
	e := transport.NewEncoder()
	snap.Strata.Encode(e)
	valid, _ := e.Pack()
	f.Add(append([]byte(nil), valid...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		remote, err := iblt.DecodeStrata(transport.NewDecoder(data), fuzzStrataSeed)
		if err != nil {
			return
		}
		// A decoded estimator must be usable: Estimate against a real
		// local one returns a value or a clean error, never a panic.
		if est, err := snap.Strata.Estimate(remote); err == nil && est < 0 {
			t.Fatalf("negative difference estimate %d", est)
		}
	})
}

// fuzzVerifyFixture is the honest repair payload FuzzRepairVerify
// mutates from: three points and their IDs under fuzzStrataSeed.
func fuzzVerifyFixture() (metric.PointSet, []uint64) {
	pts := metric.PointSet{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	ids := make([]uint64, len(pts))
	for i, pt := range pts {
		ids[i] = live.PointID(fuzzStrataSeed, pt)
	}
	return pts, ids
}

// FuzzRepairVerify hardens the verify-before-merge rule: arbitrary
// (ids, points) payloads — fed through the same frame readers the
// repair session uses — must never panic the verifier, and its verdict
// must be internally consistent: an accepted batch fits the request and
// every point hashes to a requested ID under the fuzzed seed; a
// rejected batch reports a mismatch count within [1, len(points)]. The
// verdict must also be deterministic across calls.
func FuzzRepairVerify(f *testing.F) {
	pts, ids := fuzzVerifyFixture()
	corrupt := pts.Clone()
	corrupt[1][0]++
	f.Add(fuzzRepairAckBytes(ids, pts), uint64(fuzzStrataSeed))
	f.Add(fuzzRepairAckBytes(ids, corrupt), uint64(fuzzStrataSeed))
	f.Add(fuzzRepairAckBytes(ids[:1], pts), uint64(fuzzStrataSeed)) // oversized batch
	f.Add(fuzzRepairAckBytes(ids, pts), uint64(fuzzStrataSeed+1))   // wrong seed
	f.Add(fuzzRepairAckBytes(nil, nil), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		d := transport.NewDecoder(data)
		ids, err := readIDList(d)
		if err != nil {
			return
		}
		pts, err := readPointList(d)
		if err != nil {
			return
		}
		verdict := verifyRepairPayload(seed, ids, pts)
		if verdict == nil {
			if len(pts) > len(ids) && len(pts) > 0 {
				t.Fatalf("accepted %d points against %d requested IDs", len(pts), len(ids))
			}
			want := make(map[uint64]bool, len(ids))
			for _, id := range ids {
				want[id] = true
			}
			for i, pt := range pts {
				if !want[live.PointID(seed, pt)] {
					t.Fatalf("accepted point %d that hashes to no requested ID", i)
				}
			}
		} else {
			if len(pts) == 0 {
				t.Fatal("rejected an empty batch")
			}
			if verdict.Total != len(pts) || verdict.Mismatched < 1 || verdict.Mismatched > verdict.Total {
				t.Fatalf("inconsistent verdict %+v for %d points", verdict, len(pts))
			}
		}
		again := verifyRepairPayload(seed, ids, pts)
		if (verdict == nil) != (again == nil) ||
			(verdict != nil && *verdict != *again) {
			t.Fatalf("verdict not deterministic: %+v vs %+v", verdict, again)
		}
	})
}

// TestGenerateClusterFuzzCorpus regenerates the checked-in seed corpus
// under testdata/fuzz (run with GEN_FUZZ_CORPUS=1; skipped otherwise).
// Checked in so CI's brief -fuzz runs start from meaningful inputs
// even on a cold fuzz cache.
func TestGenerateClusterFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("FuzzProbeSummary", "valid-with-strata", fuzzSummaryBytes(true))
	write("FuzzProbeSummary", "valid-no-strata", fuzzSummaryBytes(false))
	write("FuzzProbeSummary", "strata-equals-local", fuzzSummaryBytes(true))
	write("FuzzProbeSummary", "strata-last-byte-flipped", fuzzSummaryFlippedStrata())
	write("FuzzProbeSummary", "truncated", fuzzSummaryBytes(true)[:9])
	write("FuzzProbeSummary", "distinct-bomb", []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10})
	write("FuzzRepairFrames", "valid", fuzzRepairAckBytes([]uint64{1, 2, 3}, metric.PointSet{{1, 2}, {3, 4}}))
	write("FuzzRepairFrames", "empty-lists", fuzzRepairAckBytes(nil, nil))
	write("FuzzRepairFrames", "id-count-bomb", []byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	write("FuzzRepairFrames", "point-count-bomb", []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x7f})
	write("FuzzRepairFrames", "dimension-bomb", []byte{0x00, 0x01, 0xff, 0xff, 0xff, 0x7f})
	write("FuzzRepairFrames", "truncated", fuzzRepairAckBytes([]uint64{7}, metric.PointSet{{9}})[:3])
	writeSeeded := func(target, name string, data []byte, seed uint64) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(%d)\n", data, seed)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vpts, vids := fuzzVerifyFixture()
	vcorrupt := vpts.Clone()
	vcorrupt[1][0]++
	writeSeeded("FuzzRepairVerify", "honest", fuzzRepairAckBytes(vids, vpts), fuzzStrataSeed)
	writeSeeded("FuzzRepairVerify", "corrupt-point", fuzzRepairAckBytes(vids, vcorrupt), fuzzStrataSeed)
	writeSeeded("FuzzRepairVerify", "oversized", fuzzRepairAckBytes(vids[:1], vpts), fuzzStrataSeed)
	writeSeeded("FuzzRepairVerify", "wrong-seed", fuzzRepairAckBytes(vids, vpts), fuzzStrataSeed+1)
	ls, err := live.NewSet(live.Config{Sync: &live.SyncConfig{Seed: fuzzStrataSeed}},
		metric.PointSet{{1}, {2}, {3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	e := transport.NewEncoder()
	ls.Snapshot().Strata.Encode(e)
	valid, _ := e.Pack()
	write("FuzzDecodeStrata", "valid", valid)
	write("FuzzDecodeStrata", "cell-bomb", []byte{0xff, 0xff, 0xff, 0x7f})
}

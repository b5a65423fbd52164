package main

// The two in-process workloads: one caller, closed loop, nothing but the
// library between Alice's set and Bob's output. Bits are the protocols'
// own exact tallies; no socket is involved.

import (
	"math"
	"time"
)

// emd-oneshot: Algorithm 1 on ([4095]^16, l2), n=512, k=8, noise 8, with
// informed bounds D1 = n·noise/8 and D2 = 4·n·noise, over 16 seeded
// instances and a fresh protocol seed per reconcile.
const (
	emdN, emdK   = 512, 8
	emdNoise     = 8.0
	emdInstances = 16
	emdBaseOps   = 2500
	emdWarmups   = 8
	// emdRatioSample ops have their output scored against the optimal
	// matching (two 512-point Hungarian solves each, ~0.4 s): the first 8
	// instances when the ratio is reported, 2 when it only guards quality,
	// and never more than one op in emdRatioEvery.
	emdRatioSample = 8
	emdRatioGuard  = 2
	emdRatioEvery  = 50
)

var emdSpace = space{dim: 16, delta: 4095, norm: "l2"}

func runEMDOneshot(rc runConfig) (*result, error) {
	r := &result{}
	ops := rc.ops(emdBaseOps, 2)
	var sys *sutEMD
	var seeds []uint64
	for rc.moreSetups(r.setupS) {
		t0 := time.Now()
		ih := newInputHash()
		inst := genEMDInstances(rc.seed, emdSpace, emdInstances, emdN, emdK, emdNoise, ih)
		seeds = genSeeds(rc.seed, ops+emdWarmups*maxSetups, ih)
		sys = newSutEMD(emdSpace, emdN, emdK, emdN*emdNoise/8, 4*emdN*emdNoise, inst)
		r.inputs = ih.sum()
		// Warm-up reconciles are part of set-up: they fill the pools and
		// finish lazy initialisation. Each repetition uses seeds of its
		// own, so none finds its plans cached by the one before.
		for w := 0; w < emdWarmups; w++ {
			if _, err := sys.reconcile(w%emdInstances, seeds[ops+len(r.setupS)*emdWarmups+w]); err != nil {
				return nil, err
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	sample := emdRatioGuard
	if rc.tr != nil {
		sample = emdRatioSample
	}
	sample = min(sample, max(ops/emdRatioEvery, 1))
	outs := make([]emdOpResult, ops)
	errs := make([]error, ops)
	r.reserveOps(ops)
	tm := beginTimed()
	for op := 0; op < ops; op++ {
		t0 := time.Now()
		if rc.tr == nil {
			outs[op], errs[op] = sys.reconcile(op%emdInstances, seeds[op])
		} else {
			id := rc.tr.begin("bench.op", noSpan, op)
			outs[op], errs[op] = sys.reconcileTraced(op%emdInstances, seeds[op], rc.tr, id, op)
			rc.tr.end(id)
		}
		r.opDone(t0, tm)
		if op >= sample {
			outs[op].sprime = outs[op].sprime.sized() // keep the count, drop the points
		}
	}
	tm.end(r)

	// Output checks, off the clock: Bob must end with exactly n points
	// and the protocol must not have reported failure.
	r.attempted = ops
	var levels, funcs int
	for op, out := range outs {
		switch {
		case errs[op] != nil:
			r.fail("op %d: %v", op, errs[op])
		case out.failed:
			r.fail("op %d: protocol reported Failed", op)
		case out.sprime.len() != emdN:
			r.fail("op %d: |S'B| = %d, want %d", op, out.sprime.len(), emdN)
		}
		r.wireBits += float64(out.bits)
		r.rounds += float64(out.rounds)
		levels, funcs = out.levels, out.funcs
	}
	var ratios []float64
	for op := 0; op < min(sample, ops); op++ {
		if errs[op] == nil && !outs[op].failed {
			ratios = append(ratios, sys.ratio(op%emdInstances, outs[op].sprime))
		}
	}
	ratio := median(ratios)
	// Theorem 3.4 promises EMD(SA,S'B) <= O(log n)·EMD_k(SA,SB). At HEAD a
	// single instance scores about 1.05 when the finest level decodes and
	// 4 to 8 when a coarser one has to; with the constant taken as 2 the
	// bound is a floor under output quality that only a real loss crosses.
	if limit := 2 * math.Log2(emdN); ratio > limit {
		r.fail("emd_ratio_p50 = %.3f exceeds 2·log2(n) = %.1f", ratio, limit)
	}
	r.infof("plan: levels=%d funcs/point=%d; emd_ratio_p50=%.4f over the first %d instances", levels, funcs, ratio, len(ratios))

	if rc.tr != nil {
		r.layer = map[string]float64{"emd_ratio_p50": ratio}
		spans := rc.tr.snapshot()
		for _, part := range []string{"build", "encode", "decode", "apply"} {
			r.layer["emd."+part+"_ms"] = mean(spanDurationsMS(spans, "emd."+part))
		}
		rep, err := sys.replay(0, seeds[0], 6)
		if err != nil {
			return nil, err
		}
		rep.fillLower(r.layer)
		r.layer["emd.msg_bits"] = r.wireBits / float64(ops)
		r.layer["emd.levels"] = float64(levels)
		replayCodec(rep.capturedFrame, 50).fill(r.layer)
		// Per op both parties key all their points: 2n points through lsh
		// and hashx, n inserts per level, one peel per level tried.
		perOp := 2 * float64(emdN)
		r.infof("replay estimate per op: lsh %.3f ms + hashx %.3f ms (of emd.build+emd.apply), riblt.insert %.3f ms (of emd.build)",
			perOp*rep.lshNSPerPoint/1e6, perOp*rep.hashxNSPerPoint/1e6, float64(emdN*levels)*rep.ribltInsertNS/1e6)
	}
	return r, nil
}

// gap-oneshot: Theorem 4.2 on the Hamming cube d=1024, n=512, 8 far
// points, r1=8, r2=256; one instance, a fresh protocol seed per
// reconcile.
const (
	gapN, gapFar   = 512, 8
	gapR1, gapR2   = 8, 256
	gapBaseOps     = 600
	gapWarmups     = 4
	gapCoverSample = 8
)

var gapSpace = space{dim: 1024, delta: 1, norm: "hamming"}

func runGapOneshot(rc runConfig) (*result, error) {
	r := &result{}
	ops := rc.ops(gapBaseOps, 2)
	var sys *sutGap
	var in gapInstance
	var seeds []uint64
	for rc.moreSetups(r.setupS) {
		t0 := time.Now()
		ih := newInputHash()
		in = genGapInstance(rc.seed, gapSpace, gapN, gapFar, gapR1, gapR2, ih)
		seeds = genSeeds(rc.seed, ops+gapWarmups, ih)
		sys = newSutGap(gapSpace, gapN, gapR1, gapR2, in)
		r.inputs = ih.sum()
		for w := 0; w < gapWarmups; w++ { // warm-up reconciles are part of set-up
			if _, err := sys.reconcile(seeds[ops+w]); err != nil {
				return nil, err
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	outs := make([]gapOpResult, ops)
	errs := make([]error, ops)
	r.reserveOps(ops)
	stride := max(ops/gapCoverSample, 1)
	tm := beginTimed()
	for op := 0; op < ops; op++ {
		t0 := time.Now()
		if rc.tr == nil {
			outs[op], errs[op] = sys.reconcile(seeds[op])
		} else {
			id := rc.tr.begin("bench.op", noSpan, op)
			outs[op], errs[op] = sys.reconcileTraced(seeds[op], rc.tr, id, op)
			rc.tr.end(id)
		}
		r.opDone(t0, tm)
		if op%stride != 0 {
			outs[op].sprime = sutPoints{} // only sampled ops are checked for coverage
		}
	}
	tm.end(r)

	// Output checks, off the clock. Every op: each planted far point must
	// be among the elements Alice transmitted. On a sample of ops, the
	// full Definition 4.1 guarantee: every point of SA has a neighbour
	// within r2 in S'B = SB ∪ TA.
	r.attempted = ops
	for op, out := range outs {
		r.wireBits += float64(out.bits)
		r.rounds += float64(out.rounds)
		if errs[op] != nil {
			r.fail("op %d: %v", op, errs[op])
			continue
		}
		ta := out.ta.points()
		missing := 0
		for _, f := range in.far {
			if minHamming(ta, f, 1) != 0 {
				missing++
			}
		}
		if missing > 0 {
			r.fail("op %d: %d of %d far points not transmitted", op, missing, len(in.far))
			continue
		}
		if op%stride == 0 {
			sprime := out.sprime.points()
			for _, a := range in.sa {
				if minHamming(sprime, a, gapR2+1) > gapR2 {
					r.fail("op %d: a point of SA has no neighbour within r2 in S'B", op)
					break
				}
			}
		}
	}

	if rc.tr != nil {
		r.layer = map[string]float64{}
		spans := rc.tr.snapshot()
		self := selfTimes(spans)
		var alice, bob float64
		for i, s := range spans {
			switch s.Name {
			case "gap.alice":
				alice += float64(self[i])
			case "gap.bob":
				bob += float64(self[i])
			}
		}
		r.layer["gap.alice_busy_ms"] = alice / 1e6 / float64(ops)
		r.layer["gap.bob_busy_ms"] = bob / 1e6 / float64(ops)
		r.layer["gap.rounds"] = r.rounds / float64(ops)
		r.layer["gap.msg_bits"] = r.wireBits / float64(ops)
		rep, err := sys.replay(seeds[0], 20)
		if err != nil {
			return nil, err
		}
		r.layer["gap.payload_ns_per_point"] = rep.payloadNSPerPoint
		r.layer["lsh.coord_ns_per_point"] = rep.coordNSPerPoint
		r.layer["lsh.funcs_per_point"] = rep.funcsPerPoint
		// The key multisets differ in about 2·far children per op.
		replayIBLT(rc.seed, gapN, 2*gapFar, 200).fill(r.layer)
		replayCodec(framePattern(rc.seed, int(r.wireBits/float64(ops)/8/4)), 50).fill(r.layer)
		r.infof("replay estimate per op: keying %.3f ms for both parties' %d points (lsh alone %.3f ms)",
			2*gapN*rep.payloadNSPerPoint/1e6, 2*gapN, 2*gapN*rep.coordNSPerPoint/1e6)
	}
	return r, nil
}

// framePattern makes a stand-in frame of the given size for the codec
// replay where the benchmark cannot capture the protocol's own bytes
// (they never leave the library); the codec's cost depends on length,
// not content.
func framePattern(seed uint64, size int) []byte {
	rnd := newRand(seed, streamNoise)
	b := make([]byte, max(size, 64))
	for i := range b {
		b[i] = byte(rnd.Uint32())
	}
	return b
}

// fillLower writes the lsh, hashx and riblt replay numbers.
func (e emdReplay) fillLower(layer map[string]float64) {
	if e.pstable {
		layer["lsh.pstable_ns_per_point"] = e.lshNSPerPoint
	} else {
		layer["lsh.coord_ns_per_point"] = e.lshNSPerPoint
	}
	layer["lsh.funcs_per_point"] = e.funcsPerPoint
	layer["hashx.prefix_ns_per_point"] = e.hashxNSPerPoint
	layer["hashx.evals_per_point"] = e.hashxEvals
	layer["riblt.insert_ns_per_item"] = e.ribltInsertNS
	layer["riblt.peel_us_per_table"] = e.ribltPeelUS
	layer["riblt.peel_fail_share"] = e.ribltPeelFail
	layer["riblt.cell_bits"] = e.ribltCellBits
}

// fillEMD writes the four emd call timings (workloads where emd runs
// inside handlers the benchmark cannot span take them from the replay).
func (e emdReplay) fillEMD(layer map[string]float64) {
	layer["emd.build_ms"] = e.buildMS
	layer["emd.encode_ms"] = e.encodeMS
	layer["emd.decode_ms"] = e.decodeMS
	layer["emd.apply_ms"] = e.applyMS
	layer["emd.msg_bits"] = e.msgBits
	layer["emd.levels"] = e.levels
}

func (i ibltReplay) fill(layer map[string]float64) {
	layer["iblt.insert_ns_per_key"] = i.insertNSPerKey
	layer["iblt.decode_us_per_table"] = i.decodeUS
	layer["iblt.retry_share"] = i.retryShare
	layer["iblt.strata_codec_us"] = i.strataCodecUS
	layer["hashx.mix_ns_per_key"] = i.mixNSPerKey
}

func (c codecReplay) fill(layer map[string]float64) {
	layer["transport.enc_ns_per_kbit"] = c.encNSPerKbit
	layer["transport.dec_ns_per_kbit"] = c.decNSPerKbit
	layer["transport.allocs_per_frame"] = c.allocsPerFrame
}

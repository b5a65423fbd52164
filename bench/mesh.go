package main

// The two mesh workloads: in-process cluster nodes with static full-mesh
// peers and manual rounds. One op is one cycle: plant fresh points on
// the cycle's origin node, then drive anti-entropy rounds on every node
// in index order until every set's ID fingerprint agrees everywhere.
// One load-generating goroutine. mesh-churn runs on loopback TCP and is
// CPU-bound; mesh-rtt runs on the in-process simnet with a fixed delay
// per write and is latency-bound. No real link is crossed in either.

import (
	"time"
)

// meshShape is what differs between the two mesh workloads.
type meshShape struct {
	cfg        meshConfig
	basePoints int
	baseCycles int
	floor      int // fewest cycles a scaled-down run may use
	touches    int // sets touched per cycle
	adds       int // points added per touched set
	// pick names the t-th set cycle c touches.
	pick func(c, t int) int
}

const meshMaxRounds = 50

var meshSpace = space{dim: 32, delta: 1, norm: "hamming"}

// mesh-churn: 4 nodes, 8 sets of 64 base points, capacity 256, every 4th
// set EMD+Sync and the rest Sync-only (the daemon's catalog shape); each
// cycle adds 3 points to one EMD set and one Sync-only set, each kind
// taken in rotation. Every cycle has the same shape, so op latency has
// one mode and its median does not sit between two.
func runMeshChurn(rc runConfig) (*result, error) {
	syncOnly := []int{1, 2, 3, 5, 6, 7}
	return runMesh(rc, meshShape{
		cfg:        meshConfig{sp: meshSpace, nodes: 4, sets: 8, capacity: 256, k: 4, emdEvery: 4},
		basePoints: 64, baseCycles: 100, floor: 2, touches: 2, adds: 3,
		pick: func(c, t int) int {
			if t == 0 {
				return 4 * (c % 2)
			}
			return syncOnly[c%len(syncOnly)]
		},
	})
}

// mesh-rtt: 3 nodes, 4 sets (one EMD+Sync), 2 ms injected per write on
// every link; each cycle adds 2 points to every set.
func runMeshRTT(rc runConfig) (*result, error) {
	return runMesh(rc, meshShape{
		cfg:        meshConfig{sp: meshSpace, nodes: 3, sets: 4, capacity: 256, k: 4, emdEvery: 4, latency: 2 * time.Millisecond},
		basePoints: 64, baseCycles: 24, floor: 2, touches: 4, adds: 2,
		pick: func(_, t int) int { return t },
	})
}

// maxCycles is how many cycles fit before some set would outgrow its
// capacity, whatever -seconds asks for.
func (sh meshShape) maxCycles() int {
	size := make([]int, sh.cfg.sets)
	for c := 0; ; c++ {
		for t := 0; t < sh.touches; t++ {
			if size[sh.pick(c, t)] += sh.adds; sh.basePoints+size[sh.pick(c, t)] > sh.cfg.capacity {
				return c
			}
		}
	}
}

func runMesh(rc runConfig, sh meshShape) (*result, error) {
	r := &result{}
	cycles := rc.ops(sh.baseCycles, sh.floor)
	cycles = min(cycles, sh.maxCycles())

	// Set-up: generate, bring the mesh up converged, and run one round so
	// every carrier is dialled before the clock starts.
	var (
		sys *sutMesh
		h   *hooks
		in  meshInputs
		err error
	)
	for i := 0; rc.moreSetups(r.setupS); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		ih := newInputHash()
		in = genMeshInputs(rc.seed, sh.cfg.sp, sh.cfg.sets, sh.basePoints, cycles, sh.touches, sh.adds, ih)
		h = newHooks(rc.tr)
		if sys, err = openSutMesh(sh.cfg, in.base, h); err != nil {
			return nil, err
		}
		if err := sys.round(noSpan, -1); err != nil {
			sys.close() //nolint:errcheck // already failing
			return nil, err
		}
		r.inputs = ih.sum()
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	r.reserveOps(cycles)
	roundsOf := make([]int, cycles)
	errs := make([]error, cycles)
	var driverRounds int
	h.reset()
	tm := beginTimed()
	for c := 0; c < cycles; c++ {
		t0 := time.Now()
		id := rc.tr.begin("bench.op", noSpan, c)
		origin := c % sh.cfg.nodes
		for t := 0; t < sh.touches && errs[c] == nil; t++ {
			errs[c] = sys.add(origin, sh.pick(c, t), in.fresh[c][t], c)
		}
		for errs[c] == nil && roundsOf[c] < meshMaxRounds {
			errs[c] = sys.round(id, c)
			roundsOf[c]++
			if sys.converged() {
				break
			}
		}
		rc.tr.end(id)
		r.opDone(t0, tm)
		driverRounds += roundsOf[c]
	}
	tm.end(r)
	r.wireBits = float64(h.net.bytes.Load()) * 8
	r.rounds = float64(driverRounds)

	// Output checks: every cycle converges within the round budget, and a
	// closed mesh leaves no connection endpoint open.
	r.attempted = cycles + 1
	for c := range errs {
		switch {
		case errs[c] != nil:
			r.fail("cycle %d: %v", c, errs[c])
		case roundsOf[c] >= meshMaxRounds && !sys.converged():
			r.fail("cycle %d: not converged after %d rounds", c, meshMaxRounds)
		}
	}
	if !sys.converged() {
		r.fail("mesh not converged at the end of the run")
	}
	if err := sys.close(); err != nil {
		r.fail("close: %v", err)
	}
	if open := h.net.open.Load(); open != 0 {
		r.fail("%d connection endpoints still open after close", open)
	}
	link := "loopback TCP"
	if sh.cfg.latency > 0 {
		link = "in-process simnet, " + sh.cfg.latency.String() + " per write"
	}
	r.infof("%d nodes, %d sets, %d cycles over %s; %d dials, %d writes in the timed phase",
		sh.cfg.nodes, sh.cfg.sets, cycles, link, h.net.dials.Load(), h.net.writes.Load())

	if rc.tr != nil {
		nCycles := float64(cycles)
		r.layer = map[string]float64{}
		h.fillSessionLayers(r.layer, nCycles)
		spans := rc.tr.snapshot()
		r.layer["cluster.round_busy_ms"] = mean(spanDurationsMS(spans, "cluster.round"))
		r.layer["live.apply_us"] = mean(spanDurationsMS(spans, "live.apply")) * 1e3
		var sessions, probes, repairs float64
		for proto, t := range h.responder {
			sessions += float64(t.sessions)
			switch proto {
			case "probe":
				probes = float64(t.sessions)
			case "repair":
				repairs = float64(t.sessions)
			}
		}
		r.layer["cluster.sessions_per_round"] = sessions / float64(driverRounds)
		// A set-round probes `choices` peers and follows up with at most
		// one repair; the default is two choices, clamped to the peers.
		choices := float64(min(2, sh.cfg.nodes-1))
		if probes > 0 {
			r.layer["cluster.noop_share"] = 1 - repairs*choices/probes
		}

		// Layer replay on the first EMD set: its base content against the
		// content after the first cycle's additions.
		after := append(append(pointSet(nil), in.base[0]...), in.fresh[0][0]...)
		rep, err := sh.cfg.replayEMD(0, after, in.base[0], 8)
		if err != nil {
			return nil, err
		}
		rep.fillLower(r.layer)
		rep.fillEMD(r.layer)
		replayCodec(rep.capturedFrame, 50).fill(r.layer)
		replayIBLT(rc.seed, sh.basePoints, sh.adds, 200).fill(r.layer)
		var churn []replaceBatch
		for _, p := range in.fresh[0][0] {
			churn = append(churn, replaceBatch{remove: in.base[0][len(churn)], add: p})
		}
		lv, err := sh.cfg.replayLive(0, in.base[0], churn)
		if err != nil {
			return nil, err
		}
		r.layer["live.new_set_ms"] = lv.newSetMS
		r.layer["live.snapshot_us"] = lv.snapshotUS

		// Where a cycle's CPU goes, from the replay: every point added to
		// an EMD set is keyed once on each node (the origin's ApplyBatch,
		// the others' merges), every live-emd pull keys the puller's whole
		// set against the sketch, and every probe encodes and decodes a
		// strata estimator on each side.
		emdAdds := 0.0
		for c := 0; c < cycles; c++ {
			for t := 0; t < sh.touches; t++ {
				if sh.pick(c, t)%sh.cfg.emdEvery == 0 {
					emdAdds += float64(sh.adds)
				}
			}
		}
		pulls := 0.0
		if t := h.responder["live-emd"]; t != nil {
			pulls = float64(t.sessions)
		}
		perPoint := (rep.lshNSPerPoint + rep.hashxNSPerPoint) / 1e6
		setSize := float64(sh.basePoints) + emdAdds/float64(sh.cfg.sets/sh.cfg.emdEvery)/2
		hashMS := (emdAdds*float64(sh.cfg.nodes) + pulls*setSize) * perPoint / nCycles
		codecMS := probes * 2 * r.layer["iblt.strata_codec_us"] / 1e3 / nCycles
		cpuMS := 1e3 * r.cpuS / nCycles
		r.infof("replay estimate of CPU per cycle: lsh+hashx keying %.1f ms (%.0f%%; %.0f EMD-set adds x %d nodes + %.0f live-emd pulls of ~%.0f points), strata codec %.1f ms (%.0f%%; %.0f probes x 2 sides), of %.1f ms process CPU",
			hashMS, 100*hashMS/cpuMS, emdAdds, sh.cfg.nodes, pulls, setSize, codecMS, 100*codecMS/cpuMS, probes, cpuMS)
	}
	return r, nil
}

package main

// churn-serve: one durable live set served over loopback TCP. An
// open-loop writer replaces points at a fixed rate while one closed-loop
// returning client runs live-emd delta sessions beside it; then the
// store is crashed and its journal recovered. Two load-generating
// goroutines; no real link is crossed.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	churnPoints   = 128
	churnCapacity = 256
	churnK        = 4
	churnFlips    = 2 // Hamming distance of a re-observation from its object
	// churnRate is the writer's fixed rate. One replace batch costs about
	// 4.4 ms of the set's write lock at HEAD on the reference box, so
	// 100/s keeps the lock under half busy; the issue's 300/s would have
	// exceeded one core and grown the open-loop queue without bound.
	churnRate       = 300
	churnBaseWrites = 2400
)

var churnSpace = space{dim: 64, delta: 1, norm: "hamming"}

func runChurnServe(rc runConfig) (*result, error) {
	r := &result{}
	writes := rc.ops(churnBaseWrites, 4)
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(rc.outDir, "churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up: generate, open the durable store, create the set, start
	// serving, and warm the client's sketch cache with its first (full)
	// session. All but the last system are torn down again.
	var (
		sys     *sutChurn
		h       *hooks
		cfg     churnConfig
		base    pointSet
		batches []replaceBatch
	)
	for i := 0; rc.moreSetups(r.setupS); i++ {
		if sys != nil {
			if err := sys.crash(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		ih := newInputHash()
		base = uniformPoints(newRand(rc.seed, streamPoints), churnSpace, churnPoints)
		ih.points(base)
		batches = genReplaceBatches(rc.seed, base, writes, churnFlips, ih)
		cfg = churnConfig{sp: churnSpace, capacity: churnCapacity, k: churnK,
			dir: filepath.Join(root, fmt.Sprintf("data-%d", i))}
		h = newHooks(rc.tr)
		if sys, err = openSutChurn(cfg, base, base, h); err != nil {
			return nil, err
		}
		if _, err := sys.session(noSpan, -1); err != nil {
			sys.crash() //nolint:errcheck // already failing
			return nil, err
		}
		r.inputs = ih.sum()
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	// Timed phase.
	var (
		wg        sync.WaitGroup
		mutateUS  = make([]float64, writes)
		applyNS   int64 // time inside ApplyBatch, summed
		writeErrs = make([]error, writes)
		lateness  time.Duration
		done      = make(chan struct{})
		sessions  []sessionResult
		sessErrs  []error
	)
	h.reset()
	r.reserveOps(4 * writes)
	dirBefore := dirBytes(cfg.dir)
	tm := beginTimed()
	wg.Add(2)
	go func() { // the writer: open loop, each batch timed from its due instant
		defer wg.Done()
		defer close(done)
		interval := time.Second / churnRate
		for i, b := range batches {
			due := tm.start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			issued := time.Now()
			lateness = max(lateness, issued.Sub(due))
			writeErrs[i] = sys.apply(b, -2-i)
			finished := time.Now()
			applyNS += int64(finished.Sub(issued))
			mutateUS[i] = float64(finished.Sub(due)) / 1e3
		}
	}()
	go func() { // the reader: closed loop, one session after another
		defer wg.Done()
		for op := 0; ; op++ {
			select {
			case <-done:
				return
			default:
			}
			t0 := time.Now()
			id := rc.tr.begin("bench.op", noSpan, op)
			res, err := sys.session(id, op)
			rc.tr.end(id)
			r.opDone(t0, tm)
			sessions = append(sessions, res)
			sessErrs = append(sessErrs, err)
		}
	}()
	wg.Wait()
	tm.end(r)
	ops := len(r.opMS)
	r.wireBits = float64(h.net.bytes.Load()) * 8
	r.rounds = float64(h.net.writes.Load()) // frames either way; a session is strictly alternating

	// Crash, then recover the journal, timed.
	before := sys.fingerprint()
	if err := sys.crash(); err != nil {
		return nil, err
	}
	walBytes := dirBytes(cfg.dir) - dirBefore
	rec, err := sutRecover(cfg)
	if err != nil {
		return nil, err
	}
	if open := h.net.open.Load(); open != 0 {
		r.fail("%d connection endpoints still open after close", open)
	}

	// Output checks.
	r.attempted = ops + writes + 1
	for i, err := range writeErrs {
		if err != nil {
			r.fail("write %d: %v", i, err)
		}
	}
	for op, res := range sessions {
		switch {
		case sessErrs[op] != nil:
			r.fail("session %d: %v", op, sessErrs[op])
		case !res.usedDelta:
			r.fail("session %d: full transfer after warm-up, want delta", op)
		case !res.failed && res.sprimeLen != churnPoints:
			r.fail("session %d: |S'B| = %d, want %d", op, res.sprimeLen, churnPoints)
		}
	}
	if rec.fingerprint != before {
		r.fail("recovered fingerprint %#x != pre-crash %#x", rec.fingerprint, before)
	}
	if rec.replayed != writes {
		r.fail("recovery replayed %d records, want %d", rec.replayed, writes)
	}

	recoverS := float64(rec.openNS+rec.replayNS) / 1e9
	r.infof("writer: open loop at %d/s, %d replace batches; worst generator lateness %.3f ms", churnRate, writes, ms(lateness))
	r.info = append(r.info, latencyLine("mutate (ApplyBatch completion minus due)", "us", mutateUS))
	r.infof("recover_s=%.4f (open %.2f ms + replay of %d records at %.1f us/record)",
		recoverS, ms(time.Duration(rec.openNS)), rec.replayed, float64(rec.replayNS)/1e3/float64(max(rec.replayed, 1)))

	if rc.tr != nil {
		mu := sortedCopy(mutateUS)
		p50, _ := percentile(mu, 50)
		p90, _ := percentile(mu, 90)
		nOps, nWrites := float64(ops), float64(writes)
		r.layer = map[string]float64{
			"mutate_p50_us": p50, "mutate_p90_us": p90, "recover_s": recoverS,
			"durable.log_us_per_record":    float64(h.logNS) / 1e3 / float64(max(h.logRecords, 1)),
			"durable.wal_bytes_per_record": float64(walBytes) / nWrites,
			"durable.replay_us_per_record": float64(rec.replayNS) / 1e3 / float64(max(rec.replayed, 1)),
			"durable.open_ms":              ms(time.Duration(rec.openNS)),
			"live.apply_us":                float64(applyNS-h.logNS) / 1e3 / nWrites,
		}
		h.fillSessionLayers(r.layer, nOps)
		rep, err := cfg.replayEMD(base, base, 8)
		if err != nil {
			return nil, err
		}
		rep.fillLower(r.layer)
		rep.fillEMD(r.layer)
		replayCodec(rep.capturedFrame, 50).fill(r.layer)
		lv, err := cfg.replayLive(base, batches[:min(len(batches), 40)])
		if err != nil {
			return nil, err
		}
		r.layer["live.new_set_ms"] = lv.newSetMS
		r.layer["live.snapshot_us"] = lv.snapshotUS
		// A replace batch keys two points through all s functions.
		r.infof("replay estimate per replace batch: lsh %.3f ms + hashx %.3f ms of live.apply's %.3f ms",
			2*rep.lshNSPerPoint/1e6, 2*rep.hashxNSPerPoint/1e6, r.layer["live.apply_us"]/1e3)
	}
	return r, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// fillSessionLayers derives the session and netproto metrics from what
// the handler and conn wrappers counted since the last reset.
func (h *hooks) fillSessionLayers(layer map[string]float64, ops float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	layer["session.dials_per_op"] = float64(h.net.dials.Load()) / ops
	var sessions int64
	for proto, t := range h.responder {
		sessions += t.sessions
		layer["netproto.responder_busy_us."+proto] = float64(t.busyNS) / 1e3 / float64(t.sessions)
	}
	if sessions == 0 {
		return
	}
	n := float64(sessions)
	layer["session.sessions_per_op"] = n / ops
	layer["session.writes_per_session"] = float64(h.net.writes.Load()) / n
	layer["session.read_wait_ms_per_op"] = float64(h.recvWaitNS) / 1e6 / ops
	if h.handshakes > 0 {
		layer["session.handshake_us"] = float64(h.handshakeNS) / 1e3 / float64(h.handshakes)
	}
	layer["netproto.frames_per_session"] = float64(h.frames) / n
	layer["netproto.frame_overhead_bits"] = float64(h.net.bytes.Load()*8-h.payloadBits) / n
	if h.liveEMD > 0 {
		layer["live.delta_share"] = float64(h.deltaServed) / float64(h.liveEMD)
	}
}

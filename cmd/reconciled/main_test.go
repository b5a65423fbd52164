package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/durable"
)

// The crash-kill test runs this binary twice: the parent spawns a
// helper process (gated on RECONCILED_CRASH_HELPER) that journals an
// endless deterministic churn stream with fsync-always, printing one
// acknowledged commit line per mutation. The parent SIGKILLs it
// mid-churn, recovers the data directory in-process, and checks the
// survivor against ground truth rebuilt from the same deterministic
// stream — then proves the restarted state re-converges with a peer
// through the delta tier, not a full transfer.

const crashSetName = "crash"

func crashSpace() metric.Space { return metric.HammingCube(32) }

func crashConfig(seed uint64) live.Config {
	p := emd.DefaultParams(crashSpace(), 256, 4, seed+1)
	return live.Config{
		EMD:  &p,
		Sync: &live.SyncConfig{Seed: seed},
	}
}

func crashInitial(seed uint64) metric.PointSet {
	return clusterPoints(crashSpace(), 96, seed+2)
}

// crashChurner yields the deterministic mutation stream both processes
// derive from the seed: size-preserving point replacements, one batch
// (= one epoch) per step.
type crashChurner struct {
	src    *rng.Source
	mirror metric.PointSet
}

func newCrashChurner(seed uint64) *crashChurner {
	return &crashChurner{src: rng.New(seed ^ 0xc4a5), mirror: crashInitial(seed).Clone()}
}

func (c *crashChurner) next() []live.Op {
	i := int(c.src.Uint64() % uint64(len(c.mirror)))
	pt := randomPoint(crashSpace(), c.src)
	ops := []live.Op{{Remove: true, Point: c.mirror[i]}, {Point: pt}}
	c.mirror[i] = pt
	return ops
}

var commitLine = regexp.MustCompile(`^commit epoch=(\d+) fp=([0-9a-f]{16})$`)

// TestCrashKillHelper is the victim process: it churns a journaled set
// forever (fsync-always, so every acknowledged commit is durable) and
// is only ever stopped by the parent's SIGKILL.
func TestCrashKillHelper(t *testing.T) {
	if os.Getenv("RECONCILED_CRASH_HELPER") == "" {
		t.Skip("helper process for TestCrashKillRecovery")
	}
	dir := os.Getenv("RECONCILED_CRASH_DIR")
	seed, err := strconv.ParseUint(os.Getenv("RECONCILED_CRASH_SEED"), 10, 64)
	if err != nil {
		t.Fatalf("bad seed: %v", err)
	}
	d, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.SetPersister(d)
	ls, err := st.Create(crashSetName, crashConfig(seed), crashInitial(seed))
	if err != nil {
		t.Fatal(err)
	}
	ch := newCrashChurner(seed)
	for {
		if err := ls.ApplyBatch(ch.next()); err != nil {
			t.Fatalf("churn: %v", err)
		}
		// The journal record for this epoch is fsynced; acknowledge it.
		fmt.Printf("commit epoch=%d fp=%016x\n", ls.Epoch(), ls.IDFingerprint())
	}
}

// TestCrashKillRecovery SIGKILLs a journaling process mid-churn and
// asserts the two durability claims end to end: recovery reproduces
// the journal's ground truth exactly (every acknowledged commit
// survives), and the restarted state rejoins a mesh through delta
// repair bounded by what it actually misses.
func TestCrashKillRecovery(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics")
	}
	dir := t.TempDir()
	const seed = 7

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashKillHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"RECONCILED_CRASH_HELPER=1",
		"RECONCILED_CRASH_DIR="+dir,
		fmt.Sprintf("RECONCILED_CRASH_SEED=%d", seed),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Collect acknowledged commits until the victim has done real work,
	// then kill it without warning.
	fps := make(map[uint64]uint64)
	var last uint64
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		m := commitLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		epoch, _ := strconv.ParseUint(m[1], 10, 64)
		fp, _ := strconv.ParseUint(m[2], 16, 64)
		fps[epoch] = fp
		last = epoch
		if len(fps) >= 50 {
			break
		}
	}
	if len(fps) < 50 {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		t.Fatalf("helper died after %d commits; stderr:\n%s", len(fps), stderr.String())
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no defer
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	// Recover the abandoned directory.
	d, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := store.New()
	stats, err := d.Recover(st)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Logf("recovered after SIGKILL at epoch %d: %s", last, stats)
	ls, ok := st.Get(crashSetName)
	if !ok {
		t.Fatalf("set %q not recovered", crashSetName)
	}
	epoch := ls.Epoch()
	if epoch < last {
		t.Fatalf("recovered epoch %d < last acknowledged commit %d: a fsynced mutation was lost", epoch, last)
	}
	if fp, ok := fps[epoch]; ok && fp != ls.IDFingerprint() {
		t.Fatalf("recovered fingerprint %016x != acknowledged %016x at epoch %d", ls.IDFingerprint(), fp, epoch)
	}

	// Ground truth: replay the same deterministic stream in memory up
	// to the recovered epoch. The journal must have reproduced it
	// bit-identically — ID fingerprint and EMD sketch fingerprint both.
	truth, err := live.NewSet(crashConfig(seed), crashInitial(seed))
	if err != nil {
		t.Fatal(err)
	}
	ch := newCrashChurner(seed)
	for truth.Epoch() < epoch {
		if err := truth.ApplyBatch(ch.next()); err != nil {
			t.Fatal(err)
		}
	}
	if truth.IDFingerprint() != ls.IDFingerprint() {
		t.Fatalf("recovered ID fingerprint %016x != journal ground truth %016x",
			ls.IDFingerprint(), truth.IDFingerprint())
	}
	truthSnap := truth.Snapshot()
	_, truthFP := truthSnap.EMDWire()
	_, recoveredFP := ls.Snapshot().EMDWire()
	if truthFP != recoveredFP {
		t.Fatalf("recovered EMD sketch fingerprint %016x != journal ground truth %016x",
			recoveredFP, truthFP)
	}

	// Re-convergence: a peer holds the same converged content plus a
	// few points of its own. The restarted node must pull exactly that
	// difference through the delta tier — a full transfer would blow
	// the bound by an order of magnitude.
	extras := clusterPoints(crashSpace(), 8, seed+99)
	peerPoints := append(truthSnap.Points.Clone(), extras...)
	stB := store.New()
	if _, err := stB.Create(crashSetName, crashConfig(seed), peerPoints); err != nil {
		t.Fatal(err)
	}
	nodeA, err := cluster.New(cluster.Config{Store: st, Interval: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := cluster.New(cluster.Config{Store: stB, Interval: -1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	lA, err := nodeA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close(time.Second)
	lB, err := nodeB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close(time.Second)
	nodeA.SetPeers([]string{lB.Addr().String()})
	nodeB.SetPeers([]string{lA.Addr().String()})

	lsB, _ := stB.Get(crashSetName)
	converged := false
	for round := 0; round < 20; round++ {
		if _, err := nodeA.ReconcileOnce(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := nodeB.ReconcileOnce(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if ls.IDFingerprint() == lsB.IDFingerprint() {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("restarted node did not re-converge with its peer")
	}
	m := nodeA.Metrics()[crashSetName]
	if m.PointsReceived > uint64(len(extras)) {
		t.Fatalf("restarted node pulled %d points, more than the %d it was missing (full transfer?); metrics %v",
			m.PointsReceived, len(extras), m)
	}
	t.Logf("re-converged: %v", m)
}

// TestServeEveryProtocol drives the daemon's paired server/client
// fixture over loopback TCP: every served protocol against a server
// that does not churn and against one churning between sessions, a
// client configured with another -seed, whose hello must fail the
// parameter-digest check before any protocol traffic, and a client
// naming a protocol the daemon does not serve.
func TestServeEveryProtocol(t *testing.T) {
	base := config{
		d: 64, n: 32, k: 2, noise: 2, r1: 8, r2: 64, diff: 8, seed: 1,
		maxSessions: 8, timeout: 30 * time.Second,
	}
	serve := func(cfg config) (*session.Server, *fixture, *liveState, string) {
		t.Helper()
		f, err := newFixture(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, st := newServer(cfg, f, t.Logf)
		l, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv, f, st, l.Addr().String()
	}
	protos := []string{"live-emd", "gap"}

	srv, f, _, addr := serve(base)
	for _, proto := range protos {
		if err := runClient(base, f, "tcp", addr, proto); err != nil {
			t.Errorf("still %s: %v", proto, err)
		}
	}
	other := base
	other.seed = 2
	of, err := newFixture(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range protos {
		err := runClient(other, of, "tcp", addr, proto)
		if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Errorf("%s with -seed 2: err = %v, want a digest mismatch", proto, err)
		}
	}
	if err := runClient(base, f, "tcp", addr, "sync"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("-proto sync: err = %v, want an unknown protocol", err)
	}
	srv.Close()
	// live-emd runs two sessions (full, then delta) on one cache; with
	// -seed 2 it stops at its first refused hello.
	if ok, bad := srv.Served(), srv.Failed(); ok != 3 || bad != 2 {
		t.Errorf("still server: %d ok / %d failed sessions, want 3 / 2", ok, bad)
	}

	churning := base
	churning.mutate = 10
	srv, f, st, addr := serve(churning)
	for _, proto := range protos {
		if err := runClient(churning, f, "tcp", addr, proto); err != nil {
			t.Errorf("churning %s: %v", proto, err)
		}
		if err := st.churn(churning.mutate); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if ok, bad := srv.Served(), srv.Failed(); ok != 3 || bad != 0 {
		t.Errorf("churning server: %d ok / %d failed sessions, want 3 / 0", ok, bad)
	}
}

// TestDataDirWithDefaultSetRefused: a data dir that still holds the
// default "" set, as cluster daemons left it while they served sync,
// is refused with an error naming that set's journal directory;
// deleting the directory is enough to start, and the other sets stay.
func TestDataDirWithDefaultSetRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.SetPersister(d)
	cfg := live.Config{Sync: &live.SyncConfig{Seed: 5}}
	for _, name := range []string{"", "alpha"} {
		if _, err := st.Create(name, cfg, crashInitial(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(dir, "sets", "set-")
	err = checkDataDir(dir)
	if err == nil || !strings.Contains(err.Error(), journal) {
		t.Fatalf("data dir with the default set: err = %v, want a refusal naming %s", err, journal)
	}
	if err := os.RemoveAll(journal); err != nil {
		t.Fatal(err)
	}
	if err := checkDataDir(dir); err != nil {
		t.Fatalf("after deleting %s: %v", journal, err)
	}
	d, err = durable.Open(dir, durable.Options{Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recovered := store.New()
	if _, err := d.Recover(recovered); err != nil {
		t.Fatal(err)
	}
	if names := recovered.Names(); fmt.Sprint(names) != "[alpha]" {
		t.Fatalf("recovered sets %q, want only alpha", names)
	}
}

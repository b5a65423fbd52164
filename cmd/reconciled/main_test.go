package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/netproto"
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
	truthSnap, _, err := truth.ServeEMD(0)
	if err != nil {
		t.Fatal(err)
	}
	recoveredSnap, _, err := ls.ServeEMD(0)
	if err != nil {
		t.Fatal(err)
	}
	truthFP, recoveredFP := truthSnap.EMDFingerprint, recoveredSnap.EMDFingerprint
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

// startDaemon builds and binds the daemon main serves for a -listen
// command line, on loopback ports, with its admin API.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	_, o := daemonFlagSet(t, append([]string{
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-d", "64", "-n", "32", "-k", "2", "-diff", "8",
		"-max-sessions", "8", "-timeout", "30s",
	}, args...)...)
	d, err := newDaemon(o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// adminSets lists the set names the daemon's admin API reports.
func adminSets(t *testing.T, d *daemon) []string {
	t.Helper()
	resp, err := http.Get("http://" + d.adm.Addr().String() + "/api/v1/sets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/sets: %s", resp.Status)
	}
	var list struct {
		Sets []struct {
			Name string `json:"name"`
		} `json:"sets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range list.Sets {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// pullLiveEMD runs one live-emd session against the daemon's set name
// on cache, reconciling that set's own points, and reports whether the
// server sent a delta.
func pullLiveEMD(d *daemon, name string, p emd.Params, cache *netproto.EMDCache) (delta bool, err error) {
	ls, _ := d.store.Get(name)
	snap := ls.Snapshot()
	h := netproto.NewLiveEMDReceiver(p, snap.Points, cache)
	dial := session.Dialer{Network: "tcp", Addr: d.addr.String(), Set: name}
	if _, err := dial.Do(h); err != nil {
		return false, err
	}
	if h.Epoch != snap.Epoch || h.Result.Failed || len(h.Result.SPrime) != len(snap.Points) {
		return false, fmt.Errorf("epoch %d (want %d), failed=%v, |S'B| = %d (want %d)",
			h.Epoch, snap.Epoch, h.Result.Failed, len(h.Result.SPrime), len(snap.Points))
	}
	return h.UsedDelta, nil
}

// TestListenServesCatalog drives the daemon main serves for -listen
// alone over loopback TCP. It hosts the -sets catalog, alpha and beta
// at the defaults, and lists both in its admin API. A live-emd client
// on one sketch cache gets a full transfer from alpha and, after one
// churn tick, a delta; a client whose parameters come from -seed 2 is
// refused at the hello with a digest mismatch.
func TestListenServesCatalog(t *testing.T) {
	d := startDaemon(t)
	if got := adminSets(t, d); fmt.Sprint(got) != "[alpha beta]" {
		t.Errorf("admin lists sets %q, want [alpha beta]", got)
	}
	ls, _ := d.store.Get("alpha")
	p, ok := ls.EMDParams()
	if !ok {
		t.Fatal("alpha keeps no EMD sketch")
	}
	cache := &netproto.EMDCache{}
	if delta, err := pullLiveEMD(d, "alpha", p, cache); err != nil || delta {
		t.Errorf("first live-emd session: delta=%v, err=%v; want a full transfer", delta, err)
	}
	if !d.churn() {
		t.Fatal("churn budget exhausted on the first tick")
	}
	if delta, err := pullLiveEMD(d, "alpha", p, cache); err != nil || !delta {
		t.Errorf("live-emd session after churn: delta=%v, err=%v; want a delta", delta, err)
	}

	other := d.o.cfg
	other.seed = 2
	op := clusterCatalog(other, []string{"alpha"}, 1)[0].Config.EMD
	_, err := pullLiveEMD(d, "alpha", *op, &netproto.EMDCache{})
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("live-emd with -seed 2: err = %v, want a digest mismatch", err)
	}
	d.close()
	srv := d.node.Server()
	if ok, bad := srv.Served(), srv.Failed(); ok != 2 || bad != 1 {
		t.Errorf("server: %d ok / %d failed sessions, want 2 / 1", ok, bad)
	}
}

// TestListenRecoversChurnedSets: with -data-dir, -listen alone journals
// its sets; a restart recovers them at their churned epochs, the
// churner resumes its draws and its budget, and a live-emd client
// reconciles against the recovered EMD set.
func TestListenRecoversChurnedSets(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-mutate", "1", "-data-dir", dir, "-fsync", "off"}
	d := startDaemon(t, args...)
	for i := 0; i < 5; i++ {
		if !d.churn() {
			t.Fatalf("churn budget exhausted after %d ticks", i)
		}
	}
	type state struct {
		epoch    uint64
		fp       uint64
		size     int
		distinct int
	}
	want := make(map[string]state)
	for _, name := range d.store.Names() {
		ls, _ := d.store.Get(name)
		want[name] = state{ls.Epoch(), ls.IDFingerprint(), ls.Size(), ls.Distinct()}
	}
	d.close()

	d = startDaemon(t, args...)
	defer d.close()
	if len(want) != 2 || fmt.Sprint(d.store.Names()) != "[alpha beta]" {
		t.Fatalf("recovered sets %v, want alpha and beta (before restart: %v)", d.store.Names(), want)
	}
	for name, w := range want {
		ls, _ := d.store.Get(name)
		if got := (state{ls.Epoch(), ls.IDFingerprint(), ls.Size(), ls.Distinct()}); got != w {
			t.Fatalf("set %s recovered as %+v, want %+v", name, got, w)
		}
	}
	// The churner resumes: its first tick adds a point its previous life
	// did not (the distinct count grows too), and the 5 adds spent of
	// the 8-add budget leave 3.
	if !d.churn() {
		t.Fatal("churn on recovered sets: budget exhausted")
	}
	for name, w := range want {
		ls, _ := d.store.Get(name)
		if ls.Epoch() != w.epoch+1 || ls.Size() != w.size+1 || ls.Distinct() != w.distinct+1 {
			t.Errorf("set %s after one churn tick: epoch %d, size %d, distinct %d; want %d, %d, %d",
				name, ls.Epoch(), ls.Size(), ls.Distinct(), w.epoch+1, w.size+1, w.distinct+1)
		}
	}
	for tick := 2; tick <= 4; tick++ {
		if got, want := d.churn(), tick <= 3; got != want {
			t.Fatalf("churn tick %d after restart ran %v, want %v (budget 8, 5 spent)", tick, got, want)
		}
	}
	ls, _ := d.store.Get("alpha")
	p, _ := ls.EMDParams()
	if _, err := pullLiveEMD(d, "alpha", p, &netproto.EMDCache{}); err != nil {
		t.Errorf("live-emd against the recovered alpha: %v", err)
	}
}

// TestMeshAgreementPinned pins what members must agree on at the
// default flags: the probe and repair digest of every catalog set, for
// a static mesh of two and for the gossip member budget, and the ID
// fingerprints of setContent's fresh-start points. It also pins a
// static member's first churn adds. A change to any of these values
// splits a mesh of old and new daemons.
func TestMeshAgreementPinned(t *testing.T) {
	_, o := daemonFlagSet(t)
	names := parseSets(o.sets)
	tag := hashAddr("127.0.0.1:7441")
	want := map[string][2]uint64{ // set@nodes: DigestLiveSet, IDFingerprint
		"alpha@2":  {0xb44c65a61459881c, 0x6429b7fc39d8d140},
		"beta@2":   {0x73dd0f81ccff5aac, 0x54924295d532bf80},
		"alpha@64": {0x40c1e71de3870c26, 0x6429b7fc39d8d140},
		"beta@64":  {0x73dd0f81ccff5aac, 0x54924295d532bf80},
	}
	for _, nodes := range []int{2, gossipCapacityNodes} {
		for i, cs := range clusterCatalog(o.cfg, names, nodes) {
			ls, err := live.NewSet(cs.Config, setContent(o.cfg, i, tag))
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s@%d", cs.Name, nodes)
			got := [2]uint64{netproto.DigestLiveSet(ls), ls.IDFingerprint()}
			if got != want[key] {
				t.Errorf("%s: digest and fingerprint %#x, want %#x", key, got, want[key])
			}
		}
	}

	fps := churnedFingerprints(t, "-listen", "127.0.0.1:7441", "-cluster", "127.0.0.1:7442")
	if want := [2]uint64{0xf1f23d5aa7125a80, 0x9abb1c93a6a0b3bf}; fps != want {
		t.Errorf("static member after three churn ticks: ID fingerprints %#x, want %#x", fps, want)
	}
}

// churnedFingerprints builds the static mesh's two catalog sets with the
// same fresh-start content, runs three churn ticks of the member the
// command line describes, and returns the sets' ID fingerprints.
func churnedFingerprints(t *testing.T, args ...string) [2]uint64 {
	t.Helper()
	_, o := daemonFlagSet(t, args...)
	names := parseSets(o.sets)
	st := store.New()
	for i, cs := range clusterCatalog(o.cfg, names, 2) {
		if _, err := st.Create(cs.Name, cs.Config, setContent(o.cfg, i, hashAddr("127.0.0.1:7441"))); err != nil {
			t.Fatal(err)
		}
	}
	d := &daemon{o: o, store: st, logf: t.Logf}
	tick := d.meshChurn(names, memberTag(o))
	for i := 0; i < 3; i++ {
		tick()
	}
	var out [2]uint64
	for i, name := range names {
		ls, _ := st.Get(name)
		out[i] = ls.IDFingerprint()
	}
	return out
}

// TestGossipChurnersDiffer: gossip members that all listen on :7441, as
// in deploy/docker-compose.yml, draw their churn from their advertised
// identities, so they add different points.
func TestGossipChurnersDiffer(t *testing.T) {
	a := churnedFingerprints(t, "-listen", ":7441", "-advertise", "a:7441", "-join", "b:7441")
	b := churnedFingerprints(t, "-listen", ":7441", "-advertise", "b:7441", "-join", "a:7441")
	if a == b {
		t.Errorf("members a:7441 and b:7441 churned identical sets %#x", a)
	}
}

// TestCheckOptions: command lines no mode can run are refused before
// startup, among them a -mutate whose churn period would round to 0.
func TestCheckOptions(t *testing.T) {
	cases := []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, "need -listen"},
		{[]string{"-cluster", "a:1"}, "need -listen"},
		{[]string{"-listen", ":0", "-mutate", "1000000001"}, "-mutate 1000000001"},
		{[]string{"-listen", ":0", "-sets", " , "}, "at least one set"},
		{[]string{"-listen", ":0", "-cluster", "a:1", "-sets", " , "}, "at least one set"},
		{[]string{"-listen", ":0", "-join", "a:1", "-sets", ""}, "at least one set"},
		{[]string{"-listen", ":0", "-mutate", "1000000000"}, ""},
		{[]string{"-listen", ":0"}, ""},
	}
	for _, tc := range cases {
		_, o := daemonFlagSet(t, tc.args...)
		err := checkOptions(o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
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

package netproto

import (
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/setsets"
	"repro/internal/store"
)

// TestDigestPins pins the hello digests of two fixed configurations:
// the daemon fixture at its default flags (-d 128 -n 64 -k 4 -r1 8
// -seed 1, so r2 = d), and the benchmark's sets at its configuration
// seed 77. Peers compare these digests before any protocol traffic, so
// a changed value is a wire change and needs a deliberate re-pin. The
// live-set digests fold in meshWireVersion, the layout probe and repair
// share; only sets with Sync state have one on the wire, since probe and
// repair refuse the rest.
func TestDigestPins(t *testing.T) {
	const daemonSeed, benchSeed = 1, 77
	daemonEMD := emd.DefaultParams(metric.HammingCube(128), 64, 4, daemonSeed+1)
	daemonGap := gap.Params{Space: metric.HammingCube(512), N: 64 + 4 + 1, R1: 8, R2: 128, Seed: daemonSeed + 2}
	daemonSync := live.SyncConfig{Seed: daemonSeed + 4}
	benchGap := gap.Params{Space: metric.HammingCube(1024), N: 512, R1: 8, R2: 256, Seed: benchSeed,
		SetSets: setsets.Params{MaxRetries: 12}}
	benchChurn := emd.DefaultParams(metric.HammingCube(64), 256, 4, benchSeed)
	benchMesh := emd.DefaultParams(metric.HammingCube(32), 256, 4, benchSeed+9)
	liveSet := func(cfg live.Config) *live.Set {
		t.Helper()
		ls, err := live.NewSet(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	liveDigest := func(cfg live.Config) uint64 { return DigestLiveSet(liveSet(cfg)) }
	meshSync := live.Config{Sync: &live.SyncConfig{Seed: benchSeed}}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"daemon emd", DigestEMD(daemonEMD), 0x50a4da4c64a55904},
		{"daemon gap", DigestGap(daemonGap), 0x57d3bbe51fc0c93},
		{"daemon live emd+sync", liveDigest(live.Config{EMD: &daemonEMD, Sync: &daemonSync}), 0xbd6abd81687a9dca},
		{"bench gap", DigestGap(benchGap), 0x3a6424783607e1d4},
		{"bench churn emd", DigestEMD(benchChurn), 0x6e3bf171999b4cea},
		{"bench mesh live emd+sync", liveDigest(live.Config{EMD: &benchMesh, Sync: &live.SyncConfig{Seed: benchSeed}}), 0x5ea81eabbbd53d80},
		{"bench mesh live sync", liveDigest(meshSync), 0x5945a43ea18a8ff7},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, c.got, c.want)
		}
	}
}

// TestOlderMeshDigestRefused: a peer on the previous probe and repair
// layouts sends the digests it computed there — DigestLiveSet without a
// wire version for repair, and that folded with probe version 2 for
// probe. A store server refuses both hellos with StatusDigestMismatch
// and accepts the current digest. The old values are pinned for the
// benchmark's Sync-only mesh set at its configuration seed 77.
func TestOlderMeshDigestRefused(t *testing.T) {
	st := store.New()
	ls, err := st.Create("s", live.Config{Sync: &live.SyncConfig{Seed: 77}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		proto  Proto
		digest uint64
		want   Status
	}{
		{ProtoRepair, 0xe532ebb7cd640440, StatusDigestMismatch},
		{ProtoProbe, 0x946e8cb7003f52d9, StatusDigestMismatch},
		{ProtoRepair, DigestLiveSet(ls), StatusOK},
		{ProtoProbe, DigestLiveSet(ls), StatusOK},
	} {
		a, b := duplex()
		go func() {
			defer b.Close()
			w := NewWire(b)
			if hello, err := ReadHello(w); err == nil {
				AnswerHello(w, hello, StoreResolver(st)) //nolint:errcheck // the status is the verdict
			}
		}()
		w := NewWire(a)
		if err := SendHello(w, Hello{Proto: c.proto, Role: RoleAlice, Digest: c.digest, Set: "s"}); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadAccept(w)
		a.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%v hello with digest %#x: status %v, want %v", c.proto, c.digest, got, c.want)
		}
	}
}

package netproto

import (
	"testing"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/setsets"
)

// TestDigestPins pins the hello digests of two fixed configurations:
// the daemon fixture at its default flags (-d 128 -n 64 -k 4 -r1 8
// -seed 1, so r2 = d), and the benchmark's sets at its configuration
// seed 77. Peers compare these digests before any protocol traffic, so
// a changed value is a wire change and needs a deliberate re-pin. The
// probe digest folds the probe wire version into the live-set digest,
// so it must differ from it.
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
	if DigestProbe(liveSet(meshSync)) == liveDigest(meshSync) {
		t.Error("the probe digest equals the live-set digest: a peer on the strata-both-ways probe layout would pass the hello")
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"daemon emd", DigestEMD(daemonEMD), 0x50a4da4c64a55904},
		{"daemon gap", DigestGap(daemonGap), 0x57d3bbe51fc0c93},
		{"daemon live emd+sync", liveDigest(live.Config{EMD: &daemonEMD, Sync: &daemonSync}), 0xb6d9e83fe925f4b7},
		{"daemon live gap", liveDigest(live.Config{Gap: &daemonGap}), 0xc35953f6c00df1e0},
		{"bench gap", DigestGap(benchGap), 0x3a6424783607e1d4},
		{"bench churn emd", DigestEMD(benchChurn), 0x6e3bf171999b4cea},
		{"bench churn live", liveDigest(live.Config{EMD: &benchChurn}), 0x99f478b5dba06e4b},
		{"bench mesh live emd+sync", liveDigest(live.Config{EMD: &benchMesh, Sync: &live.SyncConfig{Seed: benchSeed}}), 0x981ca59a32e7b864},
		{"bench mesh live sync", liveDigest(meshSync), 0xe532ebb7cd640440},
		{"bench mesh probe sync", DigestProbe(liveSet(meshSync)), 0x946e8cb7003f52d9},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, c.got, c.want)
		}
	}
}

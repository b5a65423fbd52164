package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testFlagSet mirrors the daemon flag shapes the loader must coerce:
// string, int, bool, float, duration, uint64.
func testFlagSet() (*flag.FlagSet, map[string]any) {
	fs := flag.NewFlagSet("reconciled", flag.ContinueOnError)
	vals := map[string]any{
		"listen":   fs.String("listen", "", ""),
		"n":        fs.Int("n", 64, ""),
		"verbose":  fs.Bool("verbose", true, ""),
		"noise":    fs.Float64("noise", 2, ""),
		"interval": fs.Duration("interval", time.Second, ""),
		"seed":     fs.Uint64("seed", 1, ""),
		"data-dir": fs.String("data-dir", "", ""),
	}
	fs.String("config", "", "")
	return fs, vals
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conf")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigFileYAML(t *testing.T) {
	fs, vals := testFlagSet()
	if err := fs.Parse([]string{"-n", "999"}); err != nil {
		t.Fatal(err)
	}
	path := writeConfig(t, `
# deployment config
listen: 127.0.0.1:7441
n: 256            # ignored: -n was passed explicitly
verbose: false
noise: 3.5
interval: 250ms
seed: 18446744073709551615
data-dir: "/var/lib/reconciled"
`)
	if err := applyConfigFile(path, fs); err != nil {
		t.Fatal(err)
	}
	if got := *vals["listen"].(*string); got != "127.0.0.1:7441" {
		t.Errorf("listen = %q", got)
	}
	if got := *vals["n"].(*int); got != 999 {
		t.Errorf("n = %d, want the explicit 999 to beat the file's 256", got)
	}
	if *vals["verbose"].(*bool) {
		t.Error("verbose not overridden to false")
	}
	if got := *vals["noise"].(*float64); got != 3.5 {
		t.Errorf("noise = %v", got)
	}
	if got := *vals["interval"].(*time.Duration); got != 250*time.Millisecond {
		t.Errorf("interval = %v", got)
	}
	if got := *vals["seed"].(*uint64); got != math.MaxUint64 {
		t.Errorf("seed = %d", got)
	}
	if got := *vals["data-dir"].(*string); got != "/var/lib/reconciled" {
		t.Errorf("data-dir = %q (quotes should strip)", got)
	}
}

// TestConfigFileRejectsJSON: the file format is flat "flag: value"
// lines only. A JSON document must fail startup with an error naming
// that format — a JSON number decodes through float64, which would
// silently round a uint64 -seed.
func TestConfigFileRejectsJSON(t *testing.T) {
	for _, body := range []string{
		`{"seed": 9007199254740993}`,
		"\n{\n  \"listen\": \":7441\"\n}\n",
	} {
		fs, vals := testFlagSet()
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		err := applyConfigFile(writeConfig(t, body), fs)
		if err == nil || !strings.Contains(err.Error(), `"flag: value"`) {
			t.Errorf("%q: err = %v, want a rejection naming the \"flag: value\" format", body, err)
		}
		if got := *vals["seed"].(*uint64); got != 1 {
			t.Errorf("%q: seed = %d, want the default 1 left untouched", body, got)
		}
	}
}

// daemonFlagSet is the daemon's own flag set, parsed from an empty
// command line.
func daemonFlagSet(t *testing.T) (*flag.FlagSet, *options) {
	t.Helper()
	fs := flag.NewFlagSet("reconciled", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return fs, o
}

// TestConfigFileErrors loads bad files against the daemon's real flags,
// so a retired flag that comes back makes its input load.
func TestConfigFileErrors(t *testing.T) {
	cases := []struct{ name, body string }{
		{"unknown flag", "bogus: 1\n"},
		{"retired -workers flag", "workers: 4\n"},
		{"retired -pprof flag", "pprof: localhost:6060\n"},
		{"config self-reference", "config: other.yaml\n"},
		{"bad value for typed flag", "n: not-a-number\n"},
		{"structure line", "cluster:\n  peers: a\n"},
		{"duplicate key", "n: 1\nn: 2\n"},
	}
	for _, tc := range cases {
		fs, _ := daemonFlagSet(t)
		if err := applyConfigFile(writeConfig(t, tc.body), fs); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	fs, _ := daemonFlagSet(t)
	if err := applyConfigFile(filepath.Join(t.TempDir(), "absent"), fs); err == nil {
		t.Error("missing file: no error")
	}
}

// TestDeployConfigLoads loads the shipped mesh config against the
// daemon's flags: every key must name a flag and every value parse.
func TestDeployConfigLoads(t *testing.T) {
	fs, o := daemonFlagSet(t)
	if err := applyConfigFile(filepath.Join("..", "..", "deploy", "reconciled.yaml"), fs); err != nil {
		t.Fatal(err)
	}
	if o.sets != "alpha,beta,gamma" || o.replication != 2 || o.cfg.seed != 7 || o.cfg.diff != 16 ||
		o.interval != time.Second || o.dataDir != "/data" || o.fsync != "batch" || o.drain != 8*time.Second {
		t.Errorf("deploy config loaded as %+v", *o)
	}
}

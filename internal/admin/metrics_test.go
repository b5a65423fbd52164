package admin_test

import (
	"bufio"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/store/durable"
	"repro/internal/workload"
)

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// parseExposition validates the scrape against the text format and
// returns sample values keyed by "name{labels}".
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if typed[fields[2]] {
				t.Fatalf("family %s declared twice", fields[2])
			}
			typed[fields[2]] = true
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, value := m[1], m[3], m[4]
		if !typed[name] {
			t.Fatalf("sample %s has no preceding # TYPE", name)
		}
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples
}

// splitLabels splits k="v",k="v" on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQ, esc := false, false
	for _, r := range s {
		switch {
		case esc:
			esc = false
		case r == '\\' && inQ:
			esc = true
		case r == '"':
			inQ = !inQ
		case r == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	out = append(out, cur.String())
	return out
}

// TestMetricsExposition scrapes a reconciling two-node mesh with a
// durable store attached and checks the exposition parses, the family
// names are the documented stable set, and activity shows up.
func TestMetricsExposition(t *testing.T) {
	net := simnet.New(23)
	var nodes []*cluster.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		st := store.New()
		pts := workload.RandomSet(testSpace(), 10, rng.New(uint64(i+1)))
		extra := workload.RandomSet(testSpace(), 4, rng.New(uint64(50+i)))
		if _, err := st.Create("alpha", testConfig(), append(pts.Clone(), extra...)); err != nil {
			t.Fatal(err)
		}
		n, err := cluster.New(cluster.Config{
			Store:     st,
			Network:   "sim",
			Interval:  -1,
			Seed:      uint64(2000 + i),
			Logf:      t.Logf,
			Transport: net.Host(fmt.Sprintf("m%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := n.Start(fmt.Sprintf("m%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		addrs = append(addrs, l.Addr().String())
	}
	defer func() {
		for _, n := range nodes {
			n.Close(time.Second) //nolint:errcheck
		}
	}()
	nodes[0].SetPeers([]string{addrs[1]})
	nodes[1].SetPeers([]string{addrs[0]})
	// Both nodes reconcile, so node0 both dials (pool metrics) and
	// serves (session/wire metrics).
	for i := 0; i < 3; i++ {
		for _, n := range nodes {
			if _, err := n.ReconcileOnce(); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
		}
		for _, n := range nodes {
			n.Quiesce()
		}
	}

	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	aux := store.New()
	aux.SetPersister(d)
	ls, err := aux.Create("journaled", testConfig(), workload.RandomSet(testSpace(), 6, rng.New(77)))
	if err != nil {
		t.Fatal(err)
	}
	// Journal a few live mutations: creation only seals a snapshot,
	// WAL records count post-creation appends.
	for _, pt := range workload.RandomSet(testSpace(), 5, rng.New(78)) {
		if err := ls.Add(pt); err != nil {
			t.Fatal(err)
		}
	}

	s := admin.New(admin.Config{
		Store:   nodes[0].Store(),
		Node:    nodes[0],
		Durable: d,
		Logf:    t.Logf,
	})
	rec := do(t, s, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples := parseExposition(t, rec.Body.String())

	// The stable name contract: renaming any of these breaks dashboards.
	stable := []string{
		`rsyn_uptime_seconds`,
		`rsyn_sessions_total{result="ok"}`,
		`rsyn_sessions_total{result="failed"}`,
		`rsyn_sessions_active`,
		`rsyn_wire_rounds_total`,
		`rsyn_wire_bits_total{direction="a_to_b"}`,
		`rsyn_wire_bits_total{direction="b_to_a"}`,
		`rsyn_wire_messages_total{direction="a_to_b"}`,
		`rsyn_wire_messages_total{direction="b_to_a"}`,
		`rsyn_wire_max_payload_bits`,
		`rsyn_store_sets`,
		`rsyn_store_points`,
		`rsyn_store_distinct`,
		`rsyn_store_epochs_total`,
		`rsyn_set_points{set="alpha"}`,
		`rsyn_set_epoch{set="alpha"}`,
		`rsyn_recon_rounds_total{set="alpha"}`,
		`rsyn_recon_probes_total{set="alpha"}`,
		`rsyn_recon_tier_total{set="alpha",tier="noop"}`,
		`rsyn_recon_tier_total{set="alpha",tier="repair"}`,
		`rsyn_recon_points_total{set="alpha",direction="sent"}`,
		`rsyn_recon_points_total{set="alpha",direction="received"}`,
		`rsyn_recon_streak{set="alpha"}`,
		`rsyn_recon_backoff_rounds{set="alpha"}`,
		`rsyn_recon_last_estimate{set="alpha"}`,
		`rsyn_pool_dials_total`,
		`rsyn_pool_reuses_total`,
		`rsyn_pool_sessions_total`,
		`rsyn_peers{state="healthy"}`,
		`rsyn_peers{state="probation"}`,
		`rsyn_peers{state="quarantined"}`,
		`rsyn_wal_records_total`,
		`rsyn_wal_bytes_total`,
		`rsyn_snapshots_total`,
		`rsyn_recovery_sets`,
	}
	for _, key := range stable {
		if _, ok := samples[key]; !ok {
			t.Errorf("stable metric %s missing from scrape", key)
		}
	}
	// The mesh runs two tiers only: a matched probe (noop) or repair.
	for key := range samples {
		if strings.HasPrefix(key, `rsyn_recon_tier_total{`) &&
			!strings.HasSuffix(key, `tier="noop"}`) && !strings.HasSuffix(key, `tier="repair"}`) {
			t.Errorf("unexpected tier sample %s", key)
		}
	}

	// Activity from the mesh and the journaled store is visible.
	for _, key := range []string{
		`rsyn_sessions_total{result="ok"}`,
		`rsyn_wire_rounds_total`,
		`rsyn_recon_rounds_total{set="alpha"}`,
		`rsyn_pool_dials_total`,
		`rsyn_peers{state="healthy"}`,
		`rsyn_wal_records_total`,
		`rsyn_snapshots_total`,
	} {
		if samples[key] == 0 {
			t.Errorf("%s = 0, want nonzero after activity", key)
		}
	}
}

// TestMetricsLabelEscaping puts exposition metacharacters in a set
// name and checks the label survives, escaped.
func TestMetricsLabelEscaping(t *testing.T) {
	st := store.New()
	weird := `we"ird\name`
	if _, err := st.Create(weird, testConfig(), workload.RandomSet(testSpace(), 3, rng.New(5))); err != nil {
		t.Fatal(err)
	}
	// The default set's empty name gets a readable placeholder.
	if _, err := st.Create("", testConfig(), nil); err != nil {
		t.Fatal(err)
	}
	s := admin.New(admin.Config{Store: st, Logf: t.Logf})
	rec := do(t, s, "GET", "/metrics", "")
	body := rec.Body.String()
	if !strings.Contains(body, `rsyn_set_points{set="we\"ird\\name"} 3`) {
		t.Fatalf("escaped weird label missing:\n%s", body)
	}
	if !strings.Contains(body, `rsyn_set_points{set="<default>"} 0`) {
		t.Fatalf("default-set placeholder missing:\n%s", body)
	}
	parseExposition(t, body)
}

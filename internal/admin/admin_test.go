package admin_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/store/durable"
	"repro/internal/workload"
)

const testSyncSeed = 42

func testSpace() metric.Space { return metric.HammingCube(32) }

func testConfig() live.Config {
	return live.Config{Sync: &live.SyncConfig{Seed: testSyncSeed}}
}

// testSetConfig is the SetConfig hook the daemon wires in: shared
// protocol parameters, deterministic seed content per set name.
func testSetConfig(name string, seedPoints int) (live.Config, metric.PointSet, error) {
	var pts metric.PointSet
	if seedPoints > 0 {
		pts = workload.RandomSet(testSpace(), seedPoints, rng.New(uint64(len(name))+7))
	}
	return testConfig(), pts, nil
}

func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i, name := range []string{"", "alpha"} {
		pts := workload.RandomSet(testSpace(), 8+4*i, rng.New(uint64(i+1)))
		if _, err := st.Create(name, testConfig(), pts); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// testNode wraps st in a cluster node that runs no rounds and serves
// nothing: the admin server reads the store and the stats through it.
func testNode(t *testing.T, st *store.Store) *cluster.Node {
	t.Helper()
	n, err := cluster.New(cluster.Config{Store: st, Interval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// do drives one request through the admin mux without a listener.
func do(t *testing.T, s *admin.Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	return rec
}

func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
}

func TestSetLifecycleRoundTrip(t *testing.T) {
	st := newTestStore(t)
	s := admin.New(admin.Config{Node: testNode(t, st), SetConfig: testSetConfig, Logf: t.Logf})

	var list struct {
		Sets []struct {
			Name   string `json:"name"`
			Points int    `json:"points"`
			Epoch  uint64 `json:"epoch"`
		} `json:"sets"`
	}
	rec := do(t, s, "GET", "/api/v1/sets", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d %s", rec.Code, rec.Body.String())
	}
	decodeJSON(t, rec, &list)
	if len(list.Sets) != 2 {
		t.Fatalf("listed %d sets, want 2", len(list.Sets))
	}

	rec = do(t, s, "POST", "/api/v1/sets", `{"name":"gamma","seed_points":5}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Name   string `json:"name"`
		Points int    `json:"points"`
	}
	decodeJSON(t, rec, &created)
	if created.Name != "gamma" || created.Points != 5 {
		t.Fatalf("created = %+v, want gamma with 5 points", created)
	}

	rec = do(t, s, "GET", "/api/v1/sets/gamma", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "DELETE", "/api/v1/sets/gamma", "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("drop: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "GET", "/api/v1/sets/gamma", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("get after drop: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/api/v1/sets/gamma", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double drop: %d, want 404", rec.Code)
	}
	// The dropped name is immediately reusable.
	if rec := do(t, s, "POST", "/api/v1/sets", `{"name":"gamma"}`); rec.Code != http.StatusCreated {
		t.Fatalf("recreate: %d %s", rec.Code, rec.Body.String())
	}
}

func TestCreateErrorPaths(t *testing.T) {
	st := newTestStore(t)
	s := admin.New(admin.Config{Node: testNode(t, st), SetConfig: testSetConfig, Logf: t.Logf})

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"name":`, http.StatusBadRequest},
		{"unknown field", `{"nom":"x"}`, http.StatusBadRequest},
		{"empty name", `{"name":""}`, http.StatusBadRequest},
		{"control char in name", "{\"name\":\"a\\u0001b\"}", http.StatusBadRequest},
		{"negative seed", `{"name":"x","seed_points":-1}`, http.StatusBadRequest},
		{"duplicate", `{"name":"alpha"}`, http.StatusConflict},
	}
	for _, tc := range cases {
		if rec := do(t, s, "POST", "/api/v1/sets", tc.body); rec.Code != tc.want {
			t.Errorf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
	// The default set cannot be dropped over the API either.
	if rec := do(t, s, "DELETE", "/api/v1/sets/", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("default-set drop: %d, want 400", rec.Code)
	}
	// Wrong method on a known route answers 405, not 404.
	if rec := do(t, s, "PUT", "/api/v1/sets", `{}`); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT sets: %d, want 405", rec.Code)
	}
}

func TestModesWithoutSubsystems(t *testing.T) {
	// A node without the optional hooks (no SetConfig, no drain hook,
	// no durable store) must answer every endpoint deliberately rather
	// than panic.
	s := admin.New(admin.Config{Node: testNode(t, newTestStore(t)), Logf: t.Logf})
	for _, path := range []string{"/healthz", "/api/v1/sets", "/api/v1/sets/alpha", "/api/v1/cluster", "/metrics"} {
		if rec := do(t, s, "GET", path, ""); rec.Code != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, rec.Code)
		}
	}
	if rec := do(t, s, "POST", "/api/v1/sets", `{"name":"x"}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("create without SetConfig: %d, want 503", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/v1/drain", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("drain without hook: %d, want 503", rec.Code)
	}
	if body := do(t, s, "GET", "/metrics", "").Body.String(); strings.Contains(body, "rsyn_wal_") {
		t.Errorf("scrape without a durable store shows WAL families:\n%s", body)
	}
}

func TestDrainIdempotent(t *testing.T) {
	var calls atomic.Int64
	fired := make(chan struct{})
	s := admin.New(admin.Config{
		Drain: func() {
			calls.Add(1)
			close(fired)
		},
		Logf: t.Logf,
	})
	for i := 0; i < 3; i++ {
		rec := do(t, s, "POST", "/api/v1/drain", "")
		if rec.Code != http.StatusAccepted {
			t.Fatalf("drain #%d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("drain hook never fired")
	}
	// Give a buggy second invocation a moment to happen before counting.
	time.Sleep(20 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Fatalf("drain hook fired %d times over 3 requests, want exactly 1", n)
	}
}

// TestClusterView runs a real two-node mesh over the deterministic
// simnet, reconciles once, and checks the admin cluster and per-set
// views reflect it.
func TestClusterView(t *testing.T) {
	net := simnet.New(11)
	var nodes []*cluster.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		st := store.New()
		pts := workload.RandomSet(testSpace(), 12, rng.New(uint64(i+1)))
		extra := workload.RandomSet(testSpace(), 3, rng.New(uint64(100+i)))
		if _, err := st.Create("alpha", testConfig(), append(pts.Clone(), extra...)); err != nil {
			t.Fatal(err)
		}
		n, err := cluster.New(cluster.Config{
			Store:     st,
			Network:   "sim",
			Interval:  -1,
			Seed:      uint64(1000 + i),
			Logf:      t.Logf,
			Transport: net.Host(fmt.Sprintf("node%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := n.Start(fmt.Sprintf("node%d:1", i))
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
	for i := 0; i < 3; i++ {
		if _, err := nodes[0].ReconcileOnce(); err != nil {
			t.Fatalf("reconcile: %v", err)
		}
		for _, n := range nodes {
			n.Quiesce()
		}
	}

	s := admin.New(admin.Config{Node: nodes[0], Logf: t.Logf})

	rec := do(t, s, "GET", "/api/v1/cluster", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster view: %d %s", rec.Code, rec.Body.String())
	}
	var view struct {
		Peers  []string `json:"peers"`
		Health map[string]struct {
			State     string `json:"state"`
			Successes uint64 `json:"successes"`
		} `json:"health"`
		Net struct {
			Sessions uint64 `json:"sessions"`
			Dials    uint64 `json:"dials"`
		} `json:"net"`
	}
	decodeJSON(t, rec, &view)
	if len(view.Peers) != 1 || view.Peers[0] != addrs[1] {
		t.Fatalf("peers = %v, want [%s]", view.Peers, addrs[1])
	}
	h, ok := view.Health[addrs[1]]
	if !ok || h.State != "healthy" || h.Successes == 0 {
		t.Fatalf("health[%s] = %+v, want healthy with successes", addrs[1], h)
	}
	if view.Net.Sessions == 0 || view.Net.Dials == 0 {
		t.Fatalf("net = %+v, want nonzero sessions and dials", view.Net)
	}

	// The per-set view carries reconciliation stats in cluster mode.
	rec = do(t, s, "GET", "/api/v1/sets/alpha", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get alpha: %d %s", rec.Code, rec.Body.String())
	}
	var info struct {
		Name  string `json:"name"`
		Recon *struct {
			Rounds uint64 `json:"rounds"`
			Probes uint64 `json:"probes"`
		} `json:"recon"`
	}
	decodeJSON(t, rec, &info)
	if info.Recon == nil || info.Recon.Rounds == 0 || info.Recon.Probes == 0 {
		t.Fatalf("set view recon = %+v, want nonzero rounds and probes", info.Recon)
	}
}

// TestAdminMutationsPersist is the durability contract for API-driven
// mutations: create, drop, recreate over the handlers, kill the
// process, and the restart recovers exactly the final generation.
func TestAdminMutationsPersist(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.SetPersister(d)
	s := admin.New(admin.Config{Node: testNode(t, st), Durable: d, SetConfig: testSetConfig, Logf: t.Logf})

	if rec := do(t, s, "POST", "/api/v1/sets", `{"name":"ops","seed_points":16}`); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "DELETE", "/api/v1/sets/ops", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("drop: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/api/v1/sets", `{"name":"ops","seed_points":4}`); rec.Code != http.StatusCreated {
		t.Fatalf("recreate: %d %s", rec.Code, rec.Body.String())
	}
	ls, ok := st.Get("ops")
	if !ok {
		t.Fatal("recreated set missing")
	}
	want := ls.IDFingerprint()

	d.Crash()
	re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	rst := store.New()
	stats, err := re.Recover(rst)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.Sets != 1 {
		t.Fatalf("recovered %d sets, want just the recreated one", stats.Sets)
	}
	got, ok := rst.Get("ops")
	if !ok || got.IDFingerprint() != want {
		t.Fatalf("recovered generation mismatch (present=%v)", ok)
	}
}

func TestStartShutdown(t *testing.T) {
	s := admin.New(admin.Config{Node: testNode(t, newTestStore(t)), Logf: t.Logf})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatalf("healthz over TCP: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// pprof rides the dedicated mux, not http.DefaultServeMux.
	resp, err = http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	// Shutdown is idempotent, and a never-started server shuts down
	// cleanly too.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := admin.New(admin.Config{}).Shutdown(ctx); err != nil {
		t.Fatalf("unstarted shutdown: %v", err)
	}
}

// Package admin is the daemon's operator surface: a localhost HTTP
// control plane over the set store and cluster node, plus a Prometheus
// /metrics endpoint and the pprof handlers — all on a dedicated
// http.ServeMux served by its own http.Server, so no imported
// package's debug registrations ever leak onto the operator port and
// the server participates in the daemon's graceful drain.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz               liveness probe ("ok", text)
//	GET    /api/v1/sets           list hosted sets with live gauges and
//	                              per-set reconciliation stats
//	POST   /api/v1/sets           create a set {"name": ..., "seed_points": N}
//	GET    /api/v1/sets/{name}    one set's view (404 when absent)
//	DELETE /api/v1/sets/{name}    drop a set (204 / 404)
//	GET    /api/v1/cluster        membership, placement, peer health,
//	                              connection economy
//	POST   /api/v1/drain          trigger graceful shutdown (idempotent)
//	GET    /metrics               Prometheus text exposition (metrics.go)
//	GET    /debug/pprof/...       net/http/pprof on this mux, not the
//	                              process-global DefaultServeMux
//
// Set mutations go through store.Create/Drop and therefore through any
// attached store.Persister exactly like flag-created sets: an
// admin-created set is journaled, an admin-dropped one is atomically
// retired on disk.
package admin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/metric"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/durable"
)

// Config wires the admin server to the daemon's subsystems. Store is
// required for set management (without it the set endpoints answer
// 503); everything else is optional and widens the view when present.
type Config struct {
	// Store is the set registry the set endpoints manage.
	Store *store.Store
	// Node supplies cluster views and per-set reconciliation metrics.
	Node *cluster.Node
	// Session supplies session-engine stats when there is no Node
	// (plain -listen mode). With a Node, the node's embedded server is
	// used and this field is ignored.
	Session *session.Server
	// Durable supplies the WAL/snapshot counters (nil without
	// -data-dir).
	Durable *durable.Store
	// SetConfig supplies the live configuration and optional seed
	// content for a set created over the API. The daemon derives both
	// from its shared workload flags, so an admin-created set carries
	// the same parameter digest on every member that creates it. Nil
	// disables creation (405-free: POST answers 503).
	SetConfig func(name string, seedPoints int) (live.Config, metric.PointSet, error)
	// Drain, when set, triggers the daemon's graceful shutdown — the
	// same path as SIGTERM. The admin server guarantees it fires at
	// most once no matter how many drain requests arrive.
	Drain func()
	// Logf receives serve-loop errors (nil discards).
	Logf func(format string, args ...any)
}

// Server is the admin HTTP server. Construct with New, bind with
// Start, stop with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	http  *http.Server
	start time.Time

	mu       sync.Mutex
	listener net.Listener

	drainOnce sync.Once
}

// New builds the admin server and its route table.
func New(cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/v1/sets", s.handleListSets)
	s.mux.HandleFunc("POST /api/v1/sets", s.handleCreateSet)
	s.mux.HandleFunc("GET /api/v1/sets/{name...}", s.handleGetSet)
	s.mux.HandleFunc("DELETE /api/v1/sets/{name...}", s.handleDropSet)
	s.mux.HandleFunc("GET /api/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /api/v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	registerPprof(s.mux)
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// registerPprof installs the net/http/pprof handlers on mux. The
// handlers are registered explicitly — never via the package's side
// effect on http.DefaultServeMux — so profiling is only reachable on
// muxes that asked for it.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Mux exposes the route table (tests drive handlers through it without
// a listener).
func (s *Server) Mux() *http.ServeMux { return s.mux }

// Start binds addr (host:port; ":0" works) and serves in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go func() {
		if err := s.http.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logf("admin: serve: %v", err)
		}
	}()
	return l.Addr(), nil
}

// Addr returns the bound address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Shutdown closes the listener and waits for in-flight requests, up to
// the context deadline. Safe to call without Start (no-op) and more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	started := s.listener != nil
	s.mu.Unlock()
	if !started {
		return nil
	}
	return s.http.Shutdown(ctx)
}

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- set views ---

// reconInfo is one set's anti-entropy activity (cluster mode only).
type reconInfo struct {
	Rounds          uint64 `json:"rounds"`
	Skipped         uint64 `json:"skipped"`
	Probes          uint64 `json:"probes"`
	ProbeFailures   uint64 `json:"probe_failures"`
	Noops           uint64 `json:"noops"`
	Repairs         uint64 `json:"repairs"`
	RepairFailures  uint64 `json:"repair_failures"`
	PointsSent      uint64 `json:"points_sent"`
	PointsReceived  uint64 `json:"points_received"`
	CorruptRejected uint64 `json:"corrupt_rejected"`
	LastEstimate    int    `json:"last_estimate"`
	Streak          uint64 `json:"streak"`
	Backoff         int    `json:"backoff"`
}

func reconFrom(m cluster.SetMetrics) *reconInfo {
	return &reconInfo{
		Rounds: m.Rounds, Skipped: m.Skipped,
		Probes: m.Probes, ProbeFailures: m.ProbeFailures,
		Noops: m.Noops, Repairs: m.Repairs, RepairFailures: m.RepairFailures,
		PointsSent: m.PointsSent, PointsReceived: m.PointsReceived,
		CorruptRejected: m.CorruptRejected,
		LastEstimate:    m.LastEstimate,
		Streak:          m.Streak, Backoff: m.Backoff,
	}
}

// setInfo is one hosted set's admin view.
type setInfo struct {
	Name     string     `json:"name"`
	Points   int        `json:"points"`
	Distinct int        `json:"distinct"`
	Epoch    uint64     `json:"epoch"`
	Recon    *reconInfo `json:"recon,omitempty"`
}

func (s *Server) setInfoFor(name string, ls *live.Set, recon map[string]cluster.SetMetrics) setInfo {
	info := setInfo{
		Name:     name,
		Points:   ls.Size(),
		Distinct: ls.Distinct(),
		Epoch:    ls.Epoch(),
	}
	if m, ok := recon[name]; ok {
		info.Recon = reconFrom(m)
	}
	return info
}

func (s *Server) reconMetrics() map[string]cluster.SetMetrics {
	if s.cfg.Node == nil {
		return nil
	}
	return s.cfg.Node.Metrics()
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleListSets(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Store == nil {
		writeErr(w, http.StatusServiceUnavailable, "this mode hosts no set store")
		return
	}
	recon := s.reconMetrics()
	sets := make([]setInfo, 0, 8)
	for _, name := range s.cfg.Store.Names() {
		ls, ok := s.cfg.Store.Get(name)
		if !ok {
			continue // dropped mid-listing
		}
		sets = append(sets, s.setInfoFor(name, ls, recon))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sets": sets})
}

// createRequest is the POST /api/v1/sets body.
type createRequest struct {
	Name string `json:"name"`
	// SeedPoints asks the daemon to plant that many deterministic
	// divergent points (derived from the shared flags, this node's
	// identity, and the set name) so a fresh set visibly converges
	// across the mesh. Zero creates the set empty.
	SeedPoints int `json:"seed_points"`
}

func (s *Server) handleCreateSet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil || s.cfg.SetConfig == nil {
		writeErr(w, http.StatusServiceUnavailable, "set creation is not available in this mode")
		return
	}
	var req createRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "the default set is not managed via the admin API")
		return
	}
	if !store.ValidName(req.Name) {
		writeErr(w, http.StatusBadRequest, "invalid set name %q", req.Name)
		return
	}
	if req.SeedPoints < 0 || req.SeedPoints > 1<<16 {
		writeErr(w, http.StatusBadRequest, "seed_points out of range")
		return
	}
	cfg, initial, err := s.cfg.SetConfig(req.Name, req.SeedPoints)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "set config: %v", err)
		return
	}
	ls, err := s.cfg.Store.Create(req.Name, cfg, initial)
	if err != nil {
		if strings.Contains(err.Error(), "already exists") {
			writeErr(w, http.StatusConflict, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.setInfoFor(req.Name, ls, s.reconMetrics()))
}

func (s *Server) handleGetSet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeErr(w, http.StatusServiceUnavailable, "this mode hosts no set store")
		return
	}
	name := r.PathValue("name")
	ls, ok := s.cfg.Store.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no set %q", name)
		return
	}
	writeJSON(w, http.StatusOK, s.setInfoFor(name, ls, s.reconMetrics()))
}

func (s *Server) handleDropSet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeErr(w, http.StatusServiceUnavailable, "this mode hosts no set store")
		return
	}
	name := r.PathValue("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "the default set is not managed via the admin API")
		return
	}
	if !s.cfg.Store.Drop(name) {
		writeErr(w, http.StatusNotFound, "no set %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// clusterView is the GET /api/v1/cluster response.
type clusterView struct {
	Peers     []string                  `json:"peers"`
	Members   []memberInfo              `json:"members,omitempty"`
	Placement map[string]placementInfo  `json:"placement,omitempty"`
	Handoffs  *placementStats           `json:"placement_stats,omitempty"`
	Health    map[string]peerHealthInfo `json:"health"`
	Net       netInfo                   `json:"net"`
}

type memberInfo struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

type placementInfo struct {
	Owners        []string `json:"owners"`
	Relinquishing bool     `json:"relinquishing,omitempty"`
}

type placementStats struct {
	Acquired      uint64 `json:"acquired"`
	Dropped       uint64 `json:"dropped"`
	Relinquishing int    `json:"relinquishing"`
}

type peerHealthInfo struct {
	State          string  `json:"state"`
	Score          float64 `json:"score"`
	RTTMillis      float64 `json:"rtt_ms"`
	QuarantineLeft int     `json:"quarantine_left,omitempty"`
	Successes      uint64  `json:"successes"`
	Failures       uint64  `json:"failures"`
	Corruptions    uint64  `json:"corruptions"`
	Quarantines    uint64  `json:"quarantines"`
}

type netInfo struct {
	Sessions uint64 `json:"sessions"`
	Dials    uint64 `json:"dials"`
	Reuses   uint64 `json:"reuses"`
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	n := s.cfg.Node
	if n == nil {
		writeErr(w, http.StatusNotFound, "not a cluster member")
		return
	}
	view := clusterView{
		Peers:  n.Peers(),
		Health: make(map[string]peerHealthInfo),
	}
	for _, m := range n.Members() {
		view.Members = append(view.Members, memberInfo{
			Addr: m.Addr, State: m.State.String(), Incarnation: m.Incarnation,
		})
	}
	if pv := n.PlacementView(); len(pv) > 0 {
		view.Placement = make(map[string]placementInfo, len(pv))
		for name, p := range pv {
			view.Placement[name] = placementInfo{Owners: p.Owners, Relinquishing: p.Relinquishing}
		}
		ps := n.Placement()
		view.Handoffs = &placementStats{
			Acquired: ps.Acquired, Dropped: ps.Dropped, Relinquishing: ps.Relinquishing,
		}
	}
	for addr, h := range n.PeerHealths() {
		view.Health[addr] = peerHealthInfo{
			State:          h.State.String(),
			Score:          h.Score,
			RTTMillis:      float64(h.RTT) / float64(time.Millisecond),
			QuarantineLeft: h.QuarantineLeft,
			Successes:      h.Successes,
			Failures:       h.Failures,
			Corruptions:    h.Corruptions,
			Quarantines:    h.Quarantines,
		}
	}
	ns := n.NetStats()
	view.Net = netInfo{Sessions: ns.Sessions, Dials: ns.Dials, Reuses: ns.Reuses}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Drain == nil {
		writeErr(w, http.StatusServiceUnavailable, "drain is not wired in this mode")
		return
	}
	// Idempotent: the first request triggers the daemon's graceful
	// shutdown, every later one just re-acknowledges. The trigger runs
	// in its own goroutine so a Drain implementation that waits for
	// shutdown cannot deadlock against this handler completing (the
	// http.Server drains in-flight requests, this one included).
	s.drainOnce.Do(func() { go s.cfg.Drain() })
	writeJSON(w, http.StatusAccepted, map[string]bool{"draining": true})
}

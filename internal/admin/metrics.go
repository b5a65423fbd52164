package admin

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Hand-rolled Prometheus text exposition (format 0.0.4). The daemon
// deliberately carries no metrics dependency: the format is a dozen
// lines of escaping rules, and writing it directly keeps the metric
// set reviewable in one file. Families are emitted in a fixed order
// with sorted label values so consecutive scrapes diff cleanly.

// defaultSetLabel stands in for the default set's empty name in label
// values, matching the daemon's log convention.
const defaultSetLabel = "<default>"

// expo accumulates one scrape's exposition text.
type expo struct {
	b strings.Builder
}

// family emits the HELP/TYPE header for a metric family. typ is
// "counter" or "gauge".
func (e *expo) family(name, typ, help string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line. Labels come as alternating key, value
// pairs and are rendered in the given order.
func (e *expo) sample(name string, v float64, labels ...string) {
	e.b.WriteString(name)
	if len(labels) > 0 {
		e.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				e.b.WriteByte(',')
			}
			e.b.WriteString(labels[i])
			e.b.WriteString(`="`)
			e.b.WriteString(escapeLabel(labels[i+1]))
			e.b.WriteByte('"')
		}
		e.b.WriteByte('}')
	}
	e.b.WriteByte(' ')
	e.b.WriteString(formatValue(v))
	e.b.WriteByte('\n')
}

// escapeLabel applies the exposition-format label escapes: backslash,
// double quote, and newline are the only characters the format
// requires escaping inside a label value.
func escapeLabel(v string) string {
	return strings.NewReplacer("\\", `\\`, "\n", `\n`, `"`, `\"`).Replace(v)
}

// formatValue renders a float the way Prometheus expects: integers
// without an exponent, everything else in Go's shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var e expo

	e.family("rsyn_uptime_seconds", "gauge", "Seconds since the admin server started.")
	e.sample("rsyn_uptime_seconds", time.Since(s.start).Seconds())

	s.writeSessionMetrics(&e)
	s.writeStoreMetrics(&e)
	s.writeReconMetrics(&e)
	s.writeClusterMetrics(&e)
	s.writeDurableMetrics(&e)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, e.b.String())
}

// writeSessionMetrics covers the session engine: session outcomes and
// the wire-traffic ledger (rounds, bits and messages per direction,
// and the largest single payload — the paper's max-message-size
// figure of merit).
func (s *Server) writeSessionMetrics(e *expo) {
	srv := s.cfg.Node.Server()
	e.family("rsyn_sessions_total", "counter", "Reconciliation sessions served, by result.")
	e.sample("rsyn_sessions_total", float64(srv.Served()), "result", "ok")
	e.sample("rsyn_sessions_total", float64(srv.Failed()), "result", "failed")
	e.family("rsyn_sessions_active", "gauge", "Sessions currently mid-protocol.")
	e.sample("rsyn_sessions_active", float64(srv.Active()))

	st, _ := srv.Stats()
	e.family("rsyn_wire_rounds_total", "counter", "Protocol rounds completed across all served sessions.")
	e.sample("rsyn_wire_rounds_total", float64(st.Rounds))
	e.family("rsyn_wire_bits_total", "counter", "Payload bits carried, by direction (a=initiator, b=responder).")
	e.sample("rsyn_wire_bits_total", float64(st.BitsAtoB), "direction", "a_to_b")
	e.sample("rsyn_wire_bits_total", float64(st.BitsBtoA), "direction", "b_to_a")
	e.family("rsyn_wire_messages_total", "counter", "Messages carried, by direction.")
	e.sample("rsyn_wire_messages_total", float64(st.MsgsAtoB), "direction", "a_to_b")
	e.sample("rsyn_wire_messages_total", float64(st.MsgsBtoA), "direction", "b_to_a")
	e.family("rsyn_wire_max_payload_bits", "gauge", "Largest single message payload observed, in bits.")
	e.sample("rsyn_wire_max_payload_bits", float64(st.MaxPayload()))
}

func (s *Server) writeStoreMetrics(e *expo) {
	sets := s.cfg.Node.Store()
	st := sets.Stats()
	e.family("rsyn_store_sets", "gauge", "Sets currently hosted.")
	e.sample("rsyn_store_sets", float64(st.Sets))
	e.family("rsyn_store_points", "gauge", "Points across all hosted sets (with multiplicity).")
	e.sample("rsyn_store_points", float64(st.Points))
	e.family("rsyn_store_distinct", "gauge", "Distinct points across all hosted sets.")
	e.sample("rsyn_store_distinct", float64(st.Distinct))
	e.family("rsyn_store_epochs_total", "counter", "Mutation epochs summed over hosted sets.")
	e.sample("rsyn_store_epochs_total", float64(st.Epochs))

	names := sets.Names()
	sort.Strings(names)
	e.family("rsyn_set_points", "gauge", "Points in one hosted set.")
	for _, name := range names {
		if ls, ok := sets.Get(name); ok {
			e.sample("rsyn_set_points", float64(ls.Size()), "set", setLabel(name))
		}
	}
	e.family("rsyn_set_epoch", "gauge", "Mutation epoch of one hosted set.")
	for _, name := range names {
		if ls, ok := sets.Get(name); ok {
			e.sample("rsyn_set_epoch", float64(ls.Epoch()), "set", setLabel(name))
		}
	}
}

func setLabel(name string) string {
	if name == "" {
		return defaultSetLabel
	}
	return name
}

// writeReconMetrics covers per-set anti-entropy activity: rounds,
// probe economy, the repair-tier histogram, transfer volume, and the
// convergence gauges (streak, backoff, last divergence estimate).
func (s *Server) writeReconMetrics(e *expo) {
	metrics := s.cfg.Node.Metrics()
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}

	e.family("rsyn_recon_rounds_total", "counter", "Reconciliation rounds run for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_rounds_total", float64(metrics[n].Rounds), "set", setLabel(n))
	}
	e.family("rsyn_recon_skipped_total", "counter", "Rounds skipped by backoff for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_skipped_total", float64(metrics[n].Skipped), "set", setLabel(n))
	}
	e.family("rsyn_recon_probes_total", "counter", "Estimate probes sent for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_probes_total", float64(metrics[n].Probes), "set", setLabel(n))
	}
	e.family("rsyn_recon_probe_failures_total", "counter", "Estimate probes that failed for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_probe_failures_total", float64(metrics[n].ProbeFailures), "set", setLabel(n))
	}
	e.family("rsyn_recon_tier_total", "counter", "Repair outcomes for one set, by tier.")
	for _, n := range names {
		m := metrics[n]
		e.sample("rsyn_recon_tier_total", float64(m.Noops), "set", setLabel(n), "tier", "noop")
		e.sample("rsyn_recon_tier_total", float64(m.Repairs), "set", setLabel(n), "tier", "repair")
	}
	e.family("rsyn_recon_repair_failures_total", "counter", "Repair attempts that failed for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_repair_failures_total", float64(metrics[n].RepairFailures), "set", setLabel(n))
	}
	e.family("rsyn_recon_points_total", "counter", "Points exchanged during repair for one set, by direction.")
	for _, n := range names {
		m := metrics[n]
		e.sample("rsyn_recon_points_total", float64(m.PointsSent), "set", setLabel(n), "direction", "sent")
		e.sample("rsyn_recon_points_total", float64(m.PointsReceived), "set", setLabel(n), "direction", "received")
	}
	e.family("rsyn_recon_corrupt_rejected_total", "counter", "Repair payloads rejected by verification for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_corrupt_rejected_total", float64(metrics[n].CorruptRejected), "set", setLabel(n))
	}
	e.family("rsyn_recon_streak", "gauge", "Consecutive converged rounds for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_streak", float64(metrics[n].Streak), "set", setLabel(n))
	}
	e.family("rsyn_recon_backoff_rounds", "gauge", "Rounds one set will sit out before its next probe.")
	for _, n := range names {
		e.sample("rsyn_recon_backoff_rounds", float64(metrics[n].Backoff), "set", setLabel(n))
	}
	e.family("rsyn_recon_last_estimate", "gauge", "Most recent symmetric-difference estimate for one set.")
	for _, n := range names {
		e.sample("rsyn_recon_last_estimate", float64(metrics[n].LastEstimate), "set", setLabel(n))
	}
}

// writeClusterMetrics covers the connection economy, peer health
// states, gossip membership, and placement churn.
func (s *Server) writeClusterMetrics(e *expo) {
	n := s.cfg.Node
	ns := n.NetStats()
	e.family("rsyn_pool_dials_total", "counter", "New carrier connections dialed.")
	e.sample("rsyn_pool_dials_total", float64(ns.Dials))
	e.family("rsyn_pool_reuses_total", "counter", "Sessions that reused a pooled carrier.")
	e.sample("rsyn_pool_reuses_total", float64(ns.Reuses))
	e.family("rsyn_pool_sessions_total", "counter", "Outbound sessions opened through the pool.")
	e.sample("rsyn_pool_sessions_total", float64(ns.Sessions))

	healths := n.PeerHealths()
	states := map[string]int{"healthy": 0, "probation": 0, "quarantined": 0}
	var successes, failures, corruptions, quarantines uint64
	for _, h := range healths {
		states[h.State.String()]++
		successes += h.Successes
		failures += h.Failures
		corruptions += h.Corruptions
		quarantines += h.Quarantines
	}
	e.family("rsyn_peers", "gauge", "Known peers, by health state.")
	for _, st := range []string{"healthy", "probation", "quarantined"} {
		e.sample("rsyn_peers", float64(states[st]), "state", st)
	}
	e.family("rsyn_peer_successes_total", "counter", "Successful peer exchanges, summed over peers.")
	e.sample("rsyn_peer_successes_total", float64(successes))
	e.family("rsyn_peer_failures_total", "counter", "Failed peer exchanges, summed over peers.")
	e.sample("rsyn_peer_failures_total", float64(failures))
	e.family("rsyn_peer_corruptions_total", "counter", "Corrupt payloads detected, summed over peers.")
	e.sample("rsyn_peer_corruptions_total", float64(corruptions))
	e.family("rsyn_peer_quarantines_total", "counter", "Quarantine entries, summed over peers.")
	e.sample("rsyn_peer_quarantines_total", float64(quarantines))

	if members := n.Members(); members != nil {
		counts := map[string]int{"alive": 0, "suspect": 0, "dead": 0, "left": 0}
		for _, m := range members {
			counts[m.State.String()]++
		}
		e.family("rsyn_members", "gauge", "Gossiped members, by state.")
		for _, st := range []string{"alive", "suspect", "dead", "left"} {
			e.sample("rsyn_members", float64(counts[st]), "state", st)
		}
	}
	ps := n.Placement()
	if ps.Acquired > 0 || ps.Dropped > 0 || ps.Relinquishing > 0 || len(n.PlacementView()) > 0 {
		e.family("rsyn_placement_acquired_total", "counter", "Sets created because the ring assigned them here.")
		e.sample("rsyn_placement_acquired_total", float64(ps.Acquired))
		e.family("rsyn_placement_dropped_total", "counter", "Sets dropped after a confirmed handoff.")
		e.sample("rsyn_placement_dropped_total", float64(ps.Dropped))
		e.family("rsyn_placement_relinquishing", "gauge", "Sets currently awaiting handoff confirmation.")
		e.sample("rsyn_placement_relinquishing", float64(ps.Relinquishing))
	}
}

// writeDurableMetrics covers the WAL/snapshot pipeline and the last
// recovery's outcome.
func (s *Server) writeDurableMetrics(e *expo) {
	if s.cfg.Durable == nil {
		return
	}
	m := s.cfg.Durable.Metrics()
	e.family("rsyn_wal_records_total", "counter", "Journal records appended.")
	e.sample("rsyn_wal_records_total", float64(m.Records))
	e.family("rsyn_wal_bytes_total", "counter", "Journal bytes appended (framing included).")
	e.sample("rsyn_wal_bytes_total", float64(m.RecordBytes))
	e.family("rsyn_snapshots_total", "counter", "Snapshots sealed (creation, cadence, and recovery re-seals).")
	e.sample("rsyn_snapshots_total", float64(m.Snapshots))
	e.family("rsyn_recovery_sets", "gauge", "Sets rebuilt by the last recovery.")
	e.sample("rsyn_recovery_sets", float64(m.Recovery.Sets))
	e.family("rsyn_recovery_replayed_records", "gauge", "Journal records replayed by the last recovery.")
	e.sample("rsyn_recovery_replayed_records", float64(m.Recovery.Replayed))
	e.family("rsyn_recovery_skipped_records", "gauge", "Journal records skipped (at or below snapshot epoch) by the last recovery.")
	e.sample("rsyn_recovery_skipped_records", float64(m.Recovery.Skipped))
	e.family("rsyn_recovery_lost_bytes", "gauge", "Torn or corrupt journal tail bytes discarded by the last recovery.")
	e.sample("rsyn_recovery_lost_bytes", float64(m.Recovery.LostBytes))
	e.family("rsyn_recovery_corrupt_snapshots", "gauge", "Snapshot files the last recovery failed to decode.")
	e.sample("rsyn_recovery_corrupt_snapshots", float64(m.Recovery.CorruptSnapshots))
}

package netproto

import (
	"io"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/metric"
)

// Two-party convenience entry points. Each wraps a registered Handler in
// the session negotiation (header.go): the Alice side initiates, the Bob
// side answers. They exist for symmetric deployments — two processes and
// one stream, no server; internal/session drives the same handlers for
// the many-peer case.

// EMDAlice runs Alice's side of Algorithm 1 over a byte stream: the
// session header, then the single protocol message.
func EMDAlice(rw io.ReadWriter, p emd.Params, sa metric.PointSet) error {
	_, err := RunInitiator(rw, NewEMDSender(p, sa))
	return err
}

// EMDBob runs Bob's side: answer the header, receive, apply.
func EMDBob(rw io.ReadWriter, p emd.Params, sb metric.PointSet) (emd.Result, error) {
	h := NewEMDReceiver(p, sb)
	if _, err := RunResponder(rw, h); err != nil {
		return emd.Result{}, err
	}
	return h.Result, nil
}

// GapAlice runs Alice's side of the Theorem 4.2 protocol over a byte
// stream.
func GapAlice(rw io.ReadWriter, p gap.Params, sa metric.PointSet) (gap.AliceReport, error) {
	h := NewGapSender(p, sa)
	if _, err := RunInitiator(rw, h); err != nil {
		return gap.AliceReport{}, err
	}
	return h.Report, nil
}

// GapBob runs Bob's side; the returned Result carries this endpoint's
// traffic stats.
func GapBob(rw io.ReadWriter, p gap.Params, sb metric.PointSet) (gap.Result, error) {
	h := NewGapReceiver(p, sb)
	if _, err := RunResponder(rw, h); err != nil {
		return gap.Result{}, err
	}
	return h.Result, nil
}

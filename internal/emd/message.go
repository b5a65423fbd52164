package emd

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/transport"
)

// The split-party API. Reconcile drives both parties in one process for
// tests; deployments instead call BuildMessage on Alice's side,
// ship the bytes however they like, and call ApplyMessage on Bob's. Both
// sides must construct identical Params (same Seed — the shared public
// coins).

// BuildMessage runs Alice's side of Algorithm 1 and returns the single
// protocol message: all t level-RIBLTs of her point set.
func BuildMessage(p Params, sa metric.PointSet) ([]byte, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	if len(sa) != pl.params.N {
		return nil, fmt.Errorf("emd: |SA|=%d, params.N=%d", len(sa), pl.params.N)
	}
	e, err := alice(pl, sa)
	if err != nil {
		return nil, err
	}
	data, _ := e.Pack()
	return data, nil
}

// ApplyMessage runs Bob's side: it deletes his pairs from the received
// tables, selects i*, and assembles S′B. Stats reflect the message size.
// msg is only read, never retained — callers may pass bytes borrowed
// from a live wire frame.
func ApplyMessage(p Params, sb metric.PointSet, msg []byte) (Result, error) {
	pl, err := planFor(p)
	if err != nil {
		return Result{}, err
	}
	if len(sb) != pl.params.N {
		return Result{}, fmt.Errorf("emd: |SB|=%d, params.N=%d", len(sb), pl.params.N)
	}
	// Decode the message in place. Historically the bytes were re-encoded
	// through a bit packer into a transport.Channel just to account them;
	// the tally below is the exact Stats that round trip produced.
	var d transport.Decoder
	d.Reset(msg)
	res, err := bobDecode(pl, sb, &d)
	if err != nil {
		return Result{}, err
	}
	res.Stats = transport.Stats{
		Rounds:   1,
		BitsAtoB: int64(len(msg)) * 8,
		MsgsAtoB: 1,
	}
	res.Levels = pl.levels
	res.Funcs = pl.s
	return res, nil
}

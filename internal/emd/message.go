package emd

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/riblt"
	"repro/internal/transport"
)

// The split-party API. Reconcile is BuildMessage followed by
// ApplyMessage in one process; deployments call BuildMessage on Alice's
// side, ship the bytes however they like, and call ApplyMessage on
// Bob's. Both sides must construct identical Params (same Seed — the
// shared public coins).

// BuildMessage runs Alice's side of Algorithm 1 and returns the single
// protocol message: all t level-RIBLTs of her point set, built sharded
// by point block (see parallel.go) and encoded in one allocation of
// exactly its size. The wire bytes are identical for any block count,
// and to Sketch.Encode over the same multiset.
func BuildMessage(p Params, sa metric.PointSet) ([]byte, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	if len(sa) != pl.params.N {
		return nil, fmt.Errorf("emd: |SA|=%d, params.N=%d", len(sa), pl.params.N)
	}
	tables, err := pl.buildTables(sa)
	if err != nil {
		return nil, err
	}
	defer riblt.ReleaseAll(tables)
	return riblt.EncodeLevels(tables), nil
}

// ApplyMessage runs Bob's side: it deletes his pairs from the received
// tables, selects i*, and assembles S′B. Stats count the one message.
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
	var d transport.Decoder
	d.Reset(msg)
	tables, err := riblt.DecodeLevels(&d, pl.cfgs)
	if err != nil {
		return Result{}, err
	}
	res := applyTables(pl, sb, tables)
	res.Stats = transport.MessageStats(int64(len(msg)) * 8)
	return res, nil
}

package netproto

import (
	"fmt"
	"io"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/iblt"
	"repro/internal/metric"
	"repro/internal/transport"
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

// ---------------------------------------------------------------------------
// Classic exact reconciliation over the wire: strata + IBLT + repair.

// SyncParams tunes the wire-level ID synchronization. The estimator has
// iblt.StrataCells cells per stratum, and a failed decode doubles the
// table at most maxRetries times.
type SyncParams struct {
	// Seed is the shared public-coin seed.
	Seed uint64
}

// maxRetries bounds the IBLT doubling rounds of sync and repair.
const maxRetries = 6

// SyncInitiatorFunc reconciles its ID set against a responder: afterwards
// both sides know the full symmetric difference. theirsOnly holds IDs
// only the responder has; minesOnly those only the initiator has.
func SyncInitiatorFunc(rw io.ReadWriter, p SyncParams, ids []uint64) (theirsOnly, minesOnly []uint64, err error) {
	h := NewSyncInitiator(p, ids)
	if _, err := RunInitiator(rw, h); err != nil {
		return nil, nil, err
	}
	return h.TheirsOnly, h.MinesOnly, nil
}

// SyncResponderFunc is the peer of SyncInitiatorFunc. It returns the IDs
// only the initiator has (learned in the repair round); the initiator
// symmetrically learns this side's exclusive IDs from the IBLT.
func SyncResponderFunc(rw io.ReadWriter, p SyncParams, ids []uint64) (theirsOnly []uint64, err error) {
	h := NewSyncResponder(p, ids)
	if _, err := RunResponder(rw, h); err != nil {
		return nil, err
	}
	return h.TheirsOnly, nil
}

// runSyncInitiator is the initiator state machine, driven by the session
// engine over any transport.Conn.
//
// Wire: [strata] → ; ← [IBLT, attempt i] ; [ack + minesOnly] → (repeat
// on nack with doubled size).
func runSyncInitiator(conn transport.Conn, p SyncParams, ids []uint64) (theirsOnly, minesOnly []uint64, err error) {
	st := iblt.NewStrataFromKeys(iblt.StrataCells, p.Seed, ids)
	e := transport.NewEncoder()
	st.Encode(e)
	if err := conn.Send(e); err != nil {
		return nil, nil, err
	}
	for attempt := 0; ; attempt++ {
		d, err := conn.Recv()
		if err != nil {
			return nil, nil, err
		}
		if _, err := d.ReadUvarint(); err != nil {
			return nil, nil, err
		}
		seed := p.Seed + 0x51ab + uint64(attempt)*0x9e37
		tbl, err := iblt.DecodeFrom(d, seed)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range ids {
			tbl.Delete(id)
		}
		added, removed, decErr := tbl.Decode()
		e := transport.NewEncoder()
		e.WriteBool(decErr == nil)
		if decErr == nil {
			e.WriteUvarint(uint64(len(removed)))
			for _, id := range removed {
				e.WriteUint64(id)
			}
		}
		if err := conn.Send(e); err != nil {
			return nil, nil, err
		}
		if decErr == nil {
			return added, removed, nil
		}
		if attempt >= maxRetries {
			return nil, nil, fmt.Errorf("netproto: sync failed after %d attempts", attempt+1)
		}
	}
}

// runSyncResponder is the responder state machine.
func runSyncResponder(conn transport.Conn, p SyncParams, ids []uint64) (theirsOnly []uint64, err error) {
	return runSyncResponderWith(conn, p, ids,
		iblt.NewStrataFromKeys(iblt.StrataCells, p.Seed, ids))
}

// runSyncResponderWith is runSyncResponder with the local strata
// estimator supplied by the caller — the live serving path, where a Set
// maintains the estimator incrementally instead of rebuilding it from
// every ID each session. local must cover exactly ids with geometry
// (iblt.StrataCells, p.Seed); it is only read (Estimate clones). A
// peer's estimator that asks for more than iblt.MaxDiff differences is
// refused before any table is allocated.
func runSyncResponderWith(conn transport.Conn, p SyncParams, ids []uint64, local *iblt.Strata) (theirsOnly []uint64, err error) {
	d, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	remote, err := iblt.DecodeStrata(d, p.Seed)
	if err != nil {
		return nil, err
	}
	est, err := local.Estimate(remote)
	if err != nil {
		return nil, err
	}
	if est > iblt.MaxDiff {
		return nil, fmt.Errorf("netproto: sync difference estimate %d exceeds limit %d", est, iblt.MaxDiff)
	}
	diffBound := est*2 + 8
	for attempt := 0; ; attempt++ {
		if diffBound > iblt.MaxDiff {
			return nil, fmt.Errorf("netproto: sync IBLT bound %d exceeds limit %d", diffBound, iblt.MaxDiff)
		}
		seed := p.Seed + 0x51ab + uint64(attempt)*0x9e37
		tbl := iblt.NewFromKeys(iblt.CellsForDiff(diffBound, 3), 3, seed, ids)
		e := transport.NewEncoder()
		e.WriteUvarint(uint64(attempt))
		tbl.Encode(e)
		if err := conn.Send(e); err != nil {
			return nil, err
		}
		d, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		ok, err := d.ReadBool()
		if err != nil {
			return nil, err
		}
		if ok {
			n, err := d.ReadUvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(maxFrame/8) {
				return nil, fmt.Errorf("netproto: implausible repair size %d", n)
			}
			out := make([]uint64, n)
			for i := range out {
				if out[i], err = d.ReadUint64(); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		if attempt >= maxRetries {
			return nil, fmt.Errorf("netproto: sync failed after %d attempts", attempt+1)
		}
		diffBound *= 2
	}
}

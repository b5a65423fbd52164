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

// ---------------------------------------------------------------------------
// The exact-ID difference exchange. Sync (ProtoSync) and repair
// (ProtoRepair) differ only in how they open and what their ack carries;
// between the two, both run this one exchange, each with its own
// table-seed salt:
//
//	initiator → responder: the protocol's opening (a strata estimator)
//	responder → initiator: uvarint attempt, IBLT of responder's IDs ─┐ repeat on
//	initiator → responder: false                                    ─┘ a stall
//	initiator → responder: true, then the protocol's ack
//
// The responder sizes its first table for 2·estimate+8 differences and
// doubles the bound on every stall, at most maxRetries times; attempt
// i's table is seeded seed+salt+i·0x9e37, so each retry draws a fresh
// hypergraph. The initiator deletes its own IDs from the table and
// peels it into the IDs only the peer holds and those only it holds.

const (
	// syncSalt and repairSalt offset the table seeds of sync and repair.
	syncSalt   = 0x51ab
	repairSalt = 0x4e9a

	// maxRetries bounds the IBLT doublings of the difference exchange.
	maxRetries = 6
)

// diffSeed is the table seed of one attempt.
func diffSeed(seed, salt uint64, attempt int) uint64 {
	return seed + salt + uint64(attempt)*0x9e37
}

// diffEstimate reads a peer's strata estimator from d and estimates the
// difference against local, which it only reads (Estimate clones).
func diffEstimate(d *transport.Decoder, seed uint64, local *iblt.Strata) (int, error) {
	remote, err := iblt.DecodeStrata(d, seed)
	if err != nil {
		return 0, err
	}
	return local.Estimate(remote)
}

// diffInitiate answers the responder's tables with ids until one peels,
// and returns the IDs only the peer holds and those only ids holds. It
// sends nothing for the table that peeled: the caller's ack, which
// begins with true, answers it.
func diffInitiate(conn transport.Conn, seed, salt uint64, ids []uint64) (peerOnly, mineOnly []uint64, err error) {
	for attempt := 0; ; attempt++ {
		d, err := conn.Recv()
		if err != nil {
			return nil, nil, err
		}
		if _, err := d.ReadUvarint(); err != nil {
			return nil, nil, err
		}
		tbl, err := iblt.DecodeFrom(d, diffSeed(seed, salt, attempt))
		if err != nil {
			return nil, nil, err
		}
		for _, id := range ids {
			tbl.Delete(id)
		}
		added, removed, decErr := tbl.Decode()
		if decErr == nil {
			return added, removed, nil
		}
		e := transport.NewEncoder()
		e.WriteBool(false)
		if err := conn.Send(e); err != nil {
			return nil, nil, err
		}
		if attempt >= maxRetries {
			return nil, nil, fmt.Errorf("netproto: ID difference failed after %d attempts", attempt+1)
		}
	}
}

// diffRespond serves tables of ids, the first sized from the difference
// estimate est, until the initiator peels one. It returns the ack frame
// positioned after its true, and the difference bound of the table that
// peeled: an honest ack names no more IDs than that. An estimate or a
// doubled bound above iblt.MaxDiff is refused before any table is
// built.
func diffRespond(conn transport.Conn, seed, salt uint64, ids []uint64, est int) (ack *transport.Decoder, diffBound int, err error) {
	if est > iblt.MaxDiff {
		return nil, 0, fmt.Errorf("netproto: difference estimate %d exceeds limit %d", est, iblt.MaxDiff)
	}
	diffBound = est*2 + 8
	for attempt := 0; ; attempt++ {
		if diffBound > iblt.MaxDiff {
			return nil, 0, fmt.Errorf("netproto: IBLT bound %d exceeds limit %d", diffBound, iblt.MaxDiff)
		}
		tbl := iblt.NewFromKeys(iblt.CellsForDiff(diffBound, 3), 3, diffSeed(seed, salt, attempt), ids)
		e := transport.NewEncoder()
		e.WriteUvarint(uint64(attempt))
		tbl.Encode(e)
		if err := conn.Send(e); err != nil {
			return nil, 0, err
		}
		d, err := conn.Recv()
		if err != nil {
			return nil, 0, err
		}
		ok, err := d.ReadBool()
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return d, diffBound, nil
		}
		if attempt >= maxRetries {
			return nil, 0, fmt.Errorf("netproto: ID difference failed after %d attempts", attempt+1)
		}
		diffBound *= 2
	}
}

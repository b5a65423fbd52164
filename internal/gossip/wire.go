package gossip

import (
	"fmt"

	"repro/internal/netproto"
	"repro/internal/transport"
)

// Wire format (netproto.ProtoGossip, one frame each way):
//
//	uvarint member count
//	per member, in strictly ascending address order:
//	    length-prefixed address (1..maxAddrLen bytes)
//	    uvarint incarnation
//	    8-bit state (≤ StateLeft)
//
// The sorted-order requirement is not cosmetic: it makes the encoding
// canonical (one table, one byte string), gives the decoder a free
// duplicate check, and means a hostile frame cannot smuggle the same
// address twice with conflicting states.

// maxAddrLen bounds a member address on the wire. Real addresses are
// host:port or socket paths; anything longer is hostile.
const maxAddrLen = 255

// maxWireMembers bounds the member count a single frame may claim,
// independent of the per-byte Remaining check — no mesh this code
// serves has a million members, and a hostile count must not size
// anything before the cheap checks run.
const maxWireMembers = 1 << 20

// encodeMembers writes a member table. The input must already be
// sorted by address (Snapshot's contract).
func encodeMembers(e *transport.Encoder, members []Member) {
	e.WriteUvarint(uint64(len(members)))
	for _, m := range members {
		e.WriteBytes([]byte(m.Addr))
		e.WriteUvarint(m.Incarnation)
		e.WriteBits(uint64(m.State), 8)
	}
}

// decodeMembers reads a member table, rejecting hostile counts before
// allocating, oversized or empty addresses, out-of-order or duplicate
// entries, and unknown states.
func decodeMembers(d *transport.Decoder) ([]Member, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWireMembers {
		return nil, fmt.Errorf("gossip: implausible member count %d", n)
	}
	// Each member costs at least 4 wire bytes (1 length + 1 address byte
	// + 1 incarnation + 1 state); reject a count the rest of the frame
	// cannot back before the slice exists.
	if n > uint64(d.Remaining())/4 {
		return nil, fmt.Errorf("gossip: member count %d exceeds remaining frame (%d bytes)", n, d.Remaining())
	}
	out := make([]Member, 0, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		raw, err := d.ReadBytes()
		if err != nil {
			return nil, err
		}
		if len(raw) == 0 || len(raw) > maxAddrLen {
			return nil, fmt.Errorf("gossip: member address length %d out of range [1,%d]", len(raw), maxAddrLen)
		}
		addr := string(raw)
		if addr <= prev {
			return nil, fmt.Errorf("gossip: member addresses out of order (%q after %q)", addr, prev)
		}
		prev = addr
		inc, err := d.ReadUvarint()
		if err != nil {
			return nil, err
		}
		st, err := d.ReadBits(8)
		if err != nil {
			return nil, err
		}
		if State(st) > StateLeft {
			return nil, fmt.Errorf("gossip: unknown member state %d", st)
		}
		out = append(out, Member{Addr: addr, Incarnation: inc, State: State(st)})
	}
	return out, nil
}

// exchangeDigest is the constant parameter digest both gossip roles
// present: the protocol has no tunable parameters — any two members may
// exchange tables.
const exchangeDigest uint64 = 0x90551b

// Exchange is the push-pull handler for both roles, bound to the local
// Gossip table. The initiator sends its table and merges the reply; the
// responder merges the received table first and answers with the
// post-merge view, so one exchange fully synchronizes both tables.
type Exchange struct {
	g    *Gossip
	role netproto.Role

	// Changed reports whether the local table changed (set after Run).
	Changed bool
}

// Initiator returns the dialing side of one exchange.
func (g *Gossip) Initiator() *Exchange {
	return &Exchange{g: g, role: netproto.RoleAlice}
}

// ResponderFactory returns a factory, for a server's Resolver,
// answering exchanges against this table.
func (g *Gossip) ResponderFactory() func() netproto.Handler {
	return func() netproto.Handler { return &Exchange{g: g, role: netproto.RoleBob} }
}

// Proto implements netproto.Handler.
func (h *Exchange) Proto() netproto.Proto { return netproto.ProtoGossip }

// Role implements netproto.Handler.
func (h *Exchange) Role() netproto.Role { return h.role }

// Digest implements netproto.Handler.
func (h *Exchange) Digest() uint64 { return exchangeDigest }

// Run implements netproto.Handler.
func (h *Exchange) Run(conn transport.Conn) error {
	if h.role == netproto.RoleAlice {
		e := transport.NewEncoder()
		encodeMembers(e, h.g.Snapshot())
		if err := conn.Send(e); err != nil {
			return err
		}
		d, err := conn.Recv()
		if err != nil {
			return err
		}
		remote, err := decodeMembers(d)
		if err != nil {
			return err
		}
		h.Changed = h.g.Merge(remote)
		return nil
	}
	d, err := conn.Recv()
	if err != nil {
		return err
	}
	remote, err := decodeMembers(d)
	if err != nil {
		return err
	}
	h.Changed = h.g.Merge(remote)
	e := transport.NewEncoder()
	encodeMembers(e, h.g.Snapshot())
	return conn.Send(e)
}

package netproto

import (
	"fmt"

	"repro/internal/transport"
)

// Proto identifies one reconciliation protocol on the wire. The value is
// carried in the session header, so renumbering is a wire format break.
type Proto uint8

// The registered protocols.
const (
	// ProtoEMD is the Earth Mover's Distance protocol (Algorithm 1):
	// Alice ships her level-RIBLTs in one message, Bob reconciles.
	ProtoEMD Proto = 1
	// ProtoGap is the 4-round Gap Guarantee protocol (Theorem 4.2).
	ProtoGap Proto = 2
	// IDs 3 and 4 were exact-ID sync over bare uint64 sets and
	// multiset-of-sets reconciliation as peer protocols. Both stay
	// unused, so an old peer's hello for either is refused as unknown
	// rather than misread; repair (ProtoRepair) is the exact-ID
	// exchange on the wire.
)

// Role is the side of a protocol an endpoint plays. Alice is the side
// that speaks first (the EMD/Gap sender, the probe/repair initiator),
// Bob the side that answers.
type Role uint8

const (
	// RoleAlice is the first-speaking party.
	RoleAlice Role = 0
	// RoleBob is the answering party.
	RoleBob Role = 1
)

// Peer returns the opposite role.
func (r Role) Peer() Role {
	if r == RoleAlice {
		return RoleBob
	}
	return RoleAlice
}

// String names the role.
func (r Role) String() string {
	if r == RoleAlice {
		return "alice"
	}
	return "bob"
}

// Handler is one party's protocol state machine, bound to its parameters
// and local data. The session engine negotiates the header (protocol ID
// plus parameter digest) and then calls Run with the framed connection;
// typed results are read from the concrete handler afterwards. A Handler
// instance serves one session: construct a fresh one per peer.
type Handler interface {
	// Proto identifies the protocol this handler speaks.
	Proto() Proto
	// Role is the side this handler plays.
	Role() Role
	// Digest fingerprints the parameters both ends must share; the
	// session header rejects peers whose digest differs.
	Digest() uint64
	// Run executes the state machine over an established session.
	Run(conn transport.Conn) error
}

// protoNames names every protocol on the wire, indexed by ID; an empty
// entry is an unused ID. The table is the whole registry: a protocol
// exists when it has a name here.
var protoNames = [...]string{
	ProtoEMD:     "emd",
	ProtoGap:     "gap",
	ProtoLiveEMD: "live-emd",
	ProtoProbe:   "probe",
	ProtoRepair:  "repair",
	ProtoGossip:  "gossip",
}

// String names the protocol, or formats the raw ID when unregistered.
func (p Proto) String() string {
	if int(p) < len(protoNames) && protoNames[p] != "" {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// ProtoByName resolves a registered protocol name (as used by CLI
// flags).
func ProtoByName(name string) (Proto, bool) {
	for p, n := range protoNames {
		if n != "" && n == name {
			return Proto(p), true
		}
	}
	return 0, false
}

// Protos lists the registered protocol IDs in ascending order.
func Protos() []Proto {
	var out []Proto
	for p, n := range protoNames {
		if n != "" {
			out = append(out, Proto(p))
		}
	}
	return out
}

package netproto

import (
	"fmt"
	"sort"
	"sync"

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
	// ProtoSync is classic exact ID reconciliation (strata + IBLT).
	ProtoSync Proto = 3
	// ID 4 was multiset-of-sets reconciliation as a peer protocol; it
	// stays unused, so an old peer's hello for it is refused as
	// unknown rather than misread.
)

// Role is the side of a protocol an endpoint plays. Alice is the side
// that speaks first (the EMD/Gap sender, the Sync/Repair initiator),
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

var (
	regMu      sync.RWMutex
	protoNames = map[Proto]string{}
)

// RegisterProto names a protocol ID. Handler implementations register
// themselves at init time; duplicate registrations panic, since they
// indicate two protocols claiming one wire ID.
func RegisterProto(p Proto, name string) {
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := protoNames[p]; ok {
		panic(fmt.Sprintf("netproto: proto %d registered twice (%q, %q)", p, prev, name))
	}
	protoNames[p] = name
}

// String names the protocol, or formats the raw ID when unregistered.
func (p Proto) String() string {
	regMu.RLock()
	defer regMu.RUnlock()
	if n, ok := protoNames[p]; ok {
		return n
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// ProtoByName resolves a registered protocol name (as used by CLI
// flags).
func ProtoByName(name string) (Proto, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for p, n := range protoNames {
		if n == name {
			return p, true
		}
	}
	return 0, false
}

// Protos lists the registered protocol IDs in ascending order.
func Protos() []Proto {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Proto, 0, len(protoNames))
	for p := range protoNames {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

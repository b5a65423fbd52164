package netproto

import (
	"repro/internal/live"
	"repro/internal/store"
)

// Resolvers: a server names the handler for each hello through one,
// per hello, so a store's sets created after the server started are
// served immediately. StoreResolver serves every set in a store under
// its namespace, the store's default ("") set included; Handlers serves
// a fixed list of factories on the default set.

// Resolver resolves a named-set hello to a handler factory. It reports
// whether the set exists at all (distinguishing the unknown-set
// rejection from unknown-proto / role-unavailable) and, when it does,
// the factory complementing the peer's declared role — nil when that
// protocol or role is not served for the set. AnswerHello turns its
// answer into the hello's status.
type Resolver func(set string, proto Proto, peerRole Role) (factory func() Handler, setExists bool)

// Handlers builds the Resolver of a server hosting only the default
// set, served by fixed factories. Each factory is probed once to learn
// the (protocol, role) its handlers play; a hello naming the default
// set, that protocol and the complementary role is dispatched to it.
// Every other set is unknown. When two factories play the same
// (protocol, role), the first wins.
func Handlers(factories ...func() Handler) Resolver {
	type served struct {
		proto   Proto
		role    Role
		factory func() Handler
	}
	table := make([]served, len(factories))
	for i, f := range factories {
		h := f()
		table[i] = served{h.Proto(), h.Role(), f}
	}
	return func(set string, proto Proto, peerRole Role) (func() Handler, bool) {
		if set != "" {
			return nil, false
		}
		for _, s := range table {
			if s.proto == proto && s.role == peerRole.Peer() {
				return s.factory, true
			}
		}
		return nil, true
	}
}

// StoreResolver builds a Resolver over a store. For each registered set
// it serves exactly the protocols the set's live.Config maintains:
//
//	live-emd      (as Alice)  when EMD is enabled
//	gap           (as Alice)  when Gap is enabled
//	probe, repair (as Bob)    when Sync is enabled
func StoreResolver(st *store.Store) Resolver {
	return func(set string, proto Proto, peerRole Role) (func() Handler, bool) {
		ls, ok := st.Get(set)
		if !ok {
			return nil, false
		}
		return liveFactory(ls, proto, peerRole.Peer()), true
	}
}

// liveFactory returns the factory serving proto in the given local role
// from the live set, or nil when the combination is not servable.
func liveFactory(ls *live.Set, proto Proto, localRole Role) func() Handler {
	var newFactory func(*live.Set) (func() Handler, error)
	switch {
	case proto == ProtoLiveEMD && localRole == RoleAlice:
		newFactory = NewLiveEMDSenderFactory
	case proto == ProtoGap && localRole == RoleAlice:
		newFactory = NewLiveGapSenderFactory
	case proto == ProtoProbe && localRole == RoleBob:
		newFactory = NewProbeResponderFactory
	case proto == ProtoRepair && localRole == RoleBob:
		newFactory = NewRepairResponderFactory
	default:
		return nil
	}
	f, err := newFactory(ls)
	if err != nil {
		return nil
	}
	return f
}

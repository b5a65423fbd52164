package netproto

import (
	"repro/internal/live"
	"repro/internal/store"
)

// Store-aware handler factories: a session server configured with a
// Resolver serves every set in a store under its namespace, the
// store's default ("") set included. Sets created
// after the server started are served immediately — resolution happens
// per hello, not at registration time.

// Resolver resolves a named-set hello to a handler factory. It reports
// whether the set exists at all (distinguishing the unknown-set
// rejection from unknown-proto / role-unavailable) and, when it does,
// the factory complementing the peer's declared role — nil when that
// protocol or role is not served for the set.
type Resolver func(set string, proto Proto, peerRole Role) (factory func() Handler, setExists bool)

// StoreResolver builds a Resolver over a store. For each registered set
// it serves exactly the protocols the set's live.Config maintains:
//
//	live-emd  (as Alice)  when EMD is enabled
//	gap       (as Alice)  when Gap is enabled
//	probe     (as Bob)    always
//	repair    (as Bob)    when Sync is enabled
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
	switch {
	case proto == ProtoLiveEMD && localRole == RoleAlice:
		f, err := NewLiveEMDSenderFactory(ls)
		if err != nil {
			return nil
		}
		return f
	case proto == ProtoGap && localRole == RoleAlice:
		f, err := NewLiveGapSenderFactory(ls)
		if err != nil {
			return nil
		}
		return f
	case proto == ProtoProbe && localRole == RoleBob:
		return NewProbeResponderFactory(ls)
	case proto == ProtoRepair && localRole == RoleBob:
		f, err := NewRepairResponderFactory(ls)
		if err != nil {
			return nil
		}
		return f
	}
	return nil
}

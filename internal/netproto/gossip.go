package netproto

// ProtoGossip is the cluster membership exchange: a push-pull
// anti-entropy swap of SWIM-style member tables (addr, incarnation,
// state), one frame each way. The frame codec and both handler roles
// live in internal/gossip — the protocol is namespace-less (always the
// default set: membership is a node property, not a set property), so
// only the wire ID is declared here, next to the other cluster
// protocols, where renumbering hazards are visible in one place.
//
//	initiator → peer: member table
//	peer → initiator: member table (after merging the initiator's)
const ProtoGossip Proto = 8

// Package live maintains mutable reconciliation state: a Set wraps a
// point multiset with Add/Remove/ApplyBatch and keeps its protocol
// structures incrementally up to date once they exist — the EMD sketch
// (RIBLT cells are sums, so a point mutation is one evaluation of the
// plan's active MLSH draws plus O(q·levels) cell updates), the Gap
// protocol's per-element key payloads (each depends only on its point
// and the public coins), and the exact-ID state (point fingerprints,
// their IDs' index and an order-independent fold over them).
//
// A set keeps one EMD sketch and never copies it. A set with Sync
// builds it only when it is first served (ServeEMD): the mesh
// reconciles such sets by exact IDs, so a replica nobody pulls a sketch
// from never keys a point into one. A set without Sync serves nothing
// but live-emd and gap and builds its sketch at creation. Either way
// the sketch, once built, is maintained under churn and is
// field-identical to a from-scratch build.
//
// Every mutation bumps an epoch. Snapshot returns an immutable view of
// the current epoch, cached until the next mutation, so a session that
// started mid-churn serves one consistent generation while new sessions
// see the latest. Once the sketch exists, each snapshot carries the
// encoded EMD message and its fingerprint, not the sketch. The strata
// estimator over its IDs (Strata; no set keeps one under churn) and its
// wire bits (StrataWire) derive from the snapshot on first use. A
// bounded journal records which EMD cells each epoch churned since the
// sketch was built; ServeEMD encodes "what changed since epoch e" from
// the sketch itself for the delta-sync fast path in internal/netproto,
// and offers no delta when e has aged out of the journal or predates
// the sketch.
package live

import (
	"fmt"
	"sync"

	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/hashx"
	"repro/internal/iblt"
	"repro/internal/metric"
	"repro/internal/transport"
)

// SyncConfig enables exact-ID reconciliation state over point
// fingerprints (IDs); a snapshot builds a strata estimator of
// iblt.StrataCells cells per stratum from its IDs on demand.
type SyncConfig struct {
	// Seed is the shared public-coin seed; point fingerprints derive
	// from it too, so both parties map equal points to equal IDs.
	Seed uint64
}

// Config selects which protocol structures a Set maintains. At least
// one of EMD, Gap or Sync must be set.
type Config struct {
	// EMD, when set, maintains the Algorithm 1 sketch: from creation
	// on a set without Sync, from its first ServeEMD on a set with
	// Sync (creation still refuses params that cannot build one).
	// Params.N is the capacity bound: the live multiset may never
	// exceed N points.
	EMD *emd.Params
	// Gap, when set, maintains per-element Gap key payloads. Params.N
	// bounds the set size.
	Gap *gap.Params
	// Sync, when set, maintains point IDs and their fingerprint fold.
	Sync *SyncConfig
}

// Op is one batch mutation.
type Op struct {
	Remove bool
	Point  metric.Point
}

// Logger receives every committed mutation as a write-ahead hook: it is
// called under the set's write lock, in epoch order, AFTER the mutation
// has been validated but BEFORE any in-memory state changes. epoch is
// the generation the mutation will close (current epoch + 1); ops is
// the exact batch, never mutated afterwards but only valid for the
// duration of the call (clone points that must be retained). A non-nil
// error aborts the mutation: nothing is applied and the error is
// returned to the mutator — the contract a durable journal needs so an
// unwritable disk can never let memory and journal diverge.
type Logger interface {
	LogOps(epoch uint64, ops []Op) error
}

// entry is one distinct point's live state.
type entry struct {
	pt      metric.Point
	count   int    // multiset multiplicity
	payload []byte // gap key payload (nil when Gap disabled)
	id      uint64 // point fingerprint (Sync)
	pos     int    // index in Set.entries
}

// Set is the mutable reconciliation state. All methods are safe for
// concurrent use; mutations serialize under the write lock, while the
// read paths a busy server hits per session — Epoch, Size, and
// Snapshot and ServeEMD once the per-epoch cache is built — share a
// read lock, so many concurrent sessions never queue behind each other.
type Set struct {
	cfg   Config
	emdP  emd.Params // defaulted copy (valid when cfg.EMD != nil)
	gapP  gap.Params
	keyer *gap.Keyer
	idMix hashx.Mixer

	mu       sync.RWMutex
	sketch   *emd.Sketch // nil on a set with Sync until its first ServeEMD
	emdSince uint64      // epoch the sketch was built at; no history before it
	logger   Logger      // write-ahead hook, called under mu before applying
	byKey    map[string]*entry
	byID     map[uint64]*entry // fingerprint → entry (Sync only)
	idFP     uint64            // XOR of mixed distinct-point fingerprints
	entries  []*entry
	size     int // multiset cardinality
	epoch    uint64
	journal  map[uint64][]emd.CellRef // epoch → EMD cells churned by it
	snap     *Snapshot                // cache for the current epoch
}

// Snapshot is one epoch's immutable serving state. Sessions hold the
// pointer for their lifetime; nothing in it is mutated after
// construction.
type Snapshot struct {
	// Epoch tags the generation this snapshot serves.
	Epoch uint64
	// Points is the multiset at this epoch.
	Points metric.PointSet
	// EMDMessage is the encoded full protocol message, and
	// EMDFingerprint hashes it; the live-emd sender ships it, and the
	// receiver checks its sketch against it. Both are nil and 0 when EMD
	// is disabled, and on a set with Sync until the set's first
	// ServeEMD builds its sketch.
	EMDMessage     []byte
	EMDFingerprint uint64
	// GapPayloads are the cached key payloads, aligned with Points.
	GapPayloads [][]byte
	// IDs are the distinct points' fingerprints.
	IDs []uint64
	// IDFingerprint is an order-independent fold (XOR of mixed
	// fingerprints) over IDs: two sets with equal distinct points have
	// equal values, and it is maintained O(1) per mutation, so cluster
	// probes compare whole sets without shipping them. Zero when Sync is
	// disabled (or the set is empty).
	IDFingerprint uint64

	syncCfg    *SyncConfig // nil when Sync is disabled
	strataOnce sync.Once
	strata     *iblt.Strata
	wireOnce   sync.Once
	strataWire []byte
	strataBits int64
}

// Strata returns the estimator over IDs, built on first use and shared
// by later callers: nil when Sync is disabled, empty for an empty set.
// Safe for concurrent use; the estimator is read-only.
func (snap *Snapshot) Strata() *iblt.Strata {
	snap.strataOnce.Do(func() {
		if snap.syncCfg != nil {
			snap.strata = iblt.NewStrataFromKeys(iblt.StrataCells, snap.syncCfg.Seed, snap.IDs)
		}
	})
	return snap.strata
}

// StrataWire returns Strata's wire encoding — the bits Strata.Encode
// writes, packed MSB first from bit 0 — and its exact bit length, or
// nil and 0 when Sync is disabled. It is encoded on first use and
// shared by every later caller, so an epoch's estimator is packed at
// most once however many mismatched probe replies carry it: senders
// splice it with transport.Encoder.WriteBitString. Safe for concurrent
// use; the returned bytes must not be modified.
func (snap *Snapshot) StrataWire() ([]byte, int64) {
	snap.wireOnce.Do(func() {
		if st := snap.Strata(); st != nil {
			var e transport.Encoder
			st.Encode(&e)
			snap.strataWire, snap.strataBits = e.Pack()
		}
	})
	return snap.strataWire, snap.strataBits
}

// NewSet builds a live set over the initial points, using the sharded
// from-scratch constructions for the enabled structures. A set with
// Sync defers its EMD sketch to its first ServeEMD but checks here
// that the params can build one.
func NewSet(cfg Config, initial metric.PointSet) (*Set, error) {
	if cfg.EMD == nil && cfg.Gap == nil && cfg.Sync == nil {
		return nil, fmt.Errorf("live: config enables no protocol structure")
	}
	s := &Set{
		cfg:      cfg,
		byKey:    make(map[string]*entry, len(initial)),
		journal:  make(map[uint64][]emd.CellRef),
		epoch:    1,
		emdSince: 1,
	}
	if cfg.EMD != nil {
		s.emdP = *cfg.EMD
		s.emdP.ApplyDefaults()
		var err error
		if cfg.Sync != nil {
			err = emd.CheckParams(s.emdP)
		} else {
			s.sketch, err = emd.BuildSketch(s.emdP, initial)
		}
		if err != nil {
			return nil, err
		}
	}
	if cfg.Gap != nil {
		s.gapP = *cfg.Gap
		s.gapP.ApplyDefaults()
		ky, err := gap.NewKeyer(s.gapP)
		if err != nil {
			return nil, err
		}
		s.keyer = ky
	}
	if cfg.Sync != nil {
		sync := *cfg.Sync // defensive copy, like the EMD/Gap params
		s.cfg.Sync = &sync
		s.idMix = idMixer(sync.Seed)
		s.byID = make(map[uint64]*entry, len(initial))
	}
	if limit, ok := s.capacity(); ok && len(initial) > limit {
		return nil, fmt.Errorf("live: %d initial points exceed capacity %d", len(initial), limit)
	}
	// Gap payloads for the initial points in one sharded batch; an
	// eager EMD sketch was already built sharded above.
	var payloads [][]byte
	if s.keyer != nil {
		payloads = s.keyer.Payloads(initial)
	}
	for i, pt := range initial {
		k := pt.Key()
		e := s.byKey[k]
		if e == nil {
			e = &entry{pt: pt.Clone(), pos: len(s.entries)}
			if payloads != nil {
				e.payload = payloads[i]
			}
			if s.cfg.Sync != nil {
				e.id = s.pointID(pt)
				s.byID[e.id] = e
				s.idFP ^= s.idMix.Hash(e.id)
			}
			s.byKey[k] = e
			s.entries = append(s.entries, e)
		}
		e.count++
		s.size++
	}
	return s, nil
}

// capacity returns the tightest enabled size bound.
func (s *Set) capacity() (int, bool) {
	c, ok := 0, false
	if s.cfg.EMD != nil {
		c, ok = s.emdP.N, true
	}
	if s.cfg.Gap != nil && (!ok || s.gapP.N < c) {
		c, ok = s.gapP.N, true
	}
	return c, ok
}

// EMDParams returns the (defaulted) EMD params when enabled.
func (s *Set) EMDParams() (emd.Params, bool) {
	if s.cfg.EMD == nil {
		return emd.Params{}, false
	}
	return s.emdP, true
}

// GapParams returns the (defaulted) Gap params when enabled.
func (s *Set) GapParams() (gap.Params, bool) {
	if s.cfg.Gap == nil {
		return gap.Params{}, false
	}
	return s.gapP, true
}

// GapKeyer returns the keyer live Gap sessions serve through.
func (s *Set) GapKeyer() (*gap.Keyer, bool) { return s.keyer, s.keyer != nil }

// SyncConfig returns the exact-ID configuration when enabled.
func (s *Set) SyncConfig() (SyncConfig, bool) {
	if s.cfg.Sync == nil {
		return SyncConfig{}, false
	}
	return *s.cfg.Sync, true
}

// Epoch returns the current generation (1 is the initial state).
func (s *Set) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Size returns the multiset cardinality.
func (s *Set) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Distinct returns the number of distinct points.
func (s *Set) Distinct() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Add inserts one point and bumps the epoch.
func (s *Set) Add(pt metric.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkAdd(1); err != nil {
		return err
	}
	if err := s.log([]Op{{Point: pt}}); err != nil {
		return err
	}
	refs := s.add(pt)
	s.bump(refs)
	return nil
}

// Remove deletes one copy of the point and bumps the epoch. It fails
// without mutating anything if the point is not in the set.
func (s *Set) Remove(pt metric.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[pt.Key()] == nil {
		return fmt.Errorf("live: remove of absent point %v", pt)
	}
	if err := s.log([]Op{{Remove: true, Point: pt}}); err != nil {
		return err
	}
	refs := s.remove(pt)
	s.bump(refs)
	return nil
}

// ApplyBatch applies the ops in order as one epoch. It validates the
// whole batch first (capacity and membership, tracked through the
// batch's own effects) and applies nothing on error.
func (s *Set) ApplyBatch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.size
	limit, bounded := s.capacity()
	counts := make(map[string]int)
	for i, op := range ops {
		k := op.Point.Key()
		have := counts[k]
		if e := s.byKey[k]; e != nil {
			have += e.count
		}
		if op.Remove {
			if have <= 0 {
				return fmt.Errorf("live: batch op %d removes absent point %v", i, op.Point)
			}
			counts[k]--
			size--
		} else {
			if bounded && size >= limit {
				return fmt.Errorf("live: batch op %d exceeds capacity %d", i, limit)
			}
			counts[k]++
			size++
		}
	}
	if err := s.log(ops); err != nil {
		return err
	}
	var refs []emd.CellRef
	for _, op := range ops {
		if op.Remove {
			refs = append(refs, s.remove(op.Point)...)
		} else {
			refs = append(refs, s.add(op.Point)...)
		}
	}
	s.bump(refs)
	return nil
}

// log invokes the write-ahead logger for a validated mutation about to
// close epoch s.epoch+1. Caller holds the write lock.
func (s *Set) log(ops []Op) error {
	if s.logger == nil {
		return nil
	}
	if err := s.logger.LogOps(s.epoch+1, ops); err != nil {
		return fmt.Errorf("live: journal epoch %d: %w", s.epoch+1, err)
	}
	return nil
}

// SetLogger installs (or clears) the write-ahead mutation hook. A
// recovery pass rebuilds a set logger-less — replayed ops must not be
// re-journaled — and attaches the journal only once replay is done.
func (s *Set) SetLogger(l Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logger = l
}

// RestoreEpoch fast-forwards the epoch counter to e without mutating
// any state, so a set rebuilt from a persisted snapshot taken at epoch
// e resumes the pre-crash generation numbering (journal replay then
// continues at e+1, and peers' cached epochs stay monotonic). It fails
// if e is behind the current epoch. The churned-cell journal is NOT
// back-filled: ServeEMD offers no delta across the restore point, so
// returning peers take the full-transfer path — the safe answer after a
// restart.
func (s *Set) RestoreEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < s.epoch {
		return fmt.Errorf("live: cannot restore epoch %d behind current %d", e, s.epoch)
	}
	if e != s.epoch {
		s.epoch = e
		s.snap = nil
	}
	return nil
}

func (s *Set) checkAdd(n int) error {
	if limit, ok := s.capacity(); ok && s.size+n > limit {
		return fmt.Errorf("live: %d points would exceed capacity %d", s.size+n, limit)
	}
	return nil
}

// add applies one insertion (lock held, preconditions checked).
func (s *Set) add(pt metric.Point) []emd.CellRef {
	k := pt.Key()
	e := s.byKey[k]
	if e == nil {
		e = &entry{pt: pt.Clone(), pos: len(s.entries)}
		if s.keyer != nil {
			e.payload = s.keyer.Payload(e.pt)
		}
		if s.cfg.Sync != nil {
			e.id = s.pointID(e.pt)
			s.byID[e.id] = e
			s.idFP ^= s.idMix.Hash(e.id)
		}
		s.byKey[k] = e
		s.entries = append(s.entries, e)
	}
	e.count++
	s.size++
	if s.sketch != nil {
		return s.sketch.Add(e.pt)
	}
	return nil
}

// remove applies one deletion (lock held, membership checked).
func (s *Set) remove(pt metric.Point) []emd.CellRef {
	k := pt.Key()
	e := s.byKey[k]
	e.count--
	s.size--
	var refs []emd.CellRef
	if s.sketch != nil {
		refs = s.sketch.Remove(e.pt)
	}
	if e.count == 0 {
		if s.cfg.Sync != nil {
			delete(s.byID, e.id)
			s.idFP ^= s.idMix.Hash(e.id)
		}
		last := len(s.entries) - 1
		s.entries[e.pos] = s.entries[last]
		s.entries[e.pos].pos = e.pos
		s.entries = s.entries[:last]
		delete(s.byKey, k)
	}
	return refs
}

// journalEpochs bounds how many epochs of churned-cell history are
// retained for delta sync. A peer whose last synced epoch has aged out
// receives a full transfer.
const journalEpochs = 256

// bump closes the current mutation into a new epoch: journal the
// churned cells, prune history past the horizon, invalidate the
// snapshot cache. The journal entry is a compact copy — refs may be (and
// on the single-op paths is) the sketch's reusable churn scratch, which
// the next mutation overwrites.
func (s *Set) bump(refs []emd.CellRef) {
	s.epoch++
	if s.sketch != nil {
		sorted := emd.SortCellRefs(refs)
		entry := make([]emd.CellRef, len(sorted))
		copy(entry, sorted)
		s.journal[s.epoch] = entry
	}
	if old := s.epoch - journalEpochs; old > 0 {
		delete(s.journal, old)
	}
	s.snap = nil
}

// Snapshot returns the current epoch's immutable serving state, built
// at most once per epoch. The cached path takes only the read lock, so
// sessions serving a stable epoch never contend.
func (s *Set) Snapshot() *Snapshot {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	if snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// ServeEMD is the live-emd serve path. It returns the current epoch's
// snapshot, which carries the full EMD message, and delta: the cells
// churned after epoch since, encoded with their current values
// (emd.Sketch.EncodeCells), for a peer whose cache is at since. delta
// is nil when there is no history to answer from — since is 0, ahead
// of the current epoch, older than the journal horizon or than the
// epoch the sketch was built at — and an empty cell list when since is
// the current epoch.
//
// Once the epoch's snapshot is cached this holds only the read lock:
// the sketch is at the snapshot's epoch for as long as it is held, and
// encoding cells only reads them. On a set with Sync the first call
// builds the sketch from the current points under the write lock and
// drops the cached snapshot; from then on mutations maintain the sketch
// and journal its churned cells.
func (s *Set) ServeEMD(since uint64) (snap *Snapshot, delta []byte, err error) {
	if s.cfg.EMD == nil {
		return nil, nil, fmt.Errorf("live: set maintains no EMD sketch")
	}
	s.mu.RLock()
	if s.snap != nil && s.sketch != nil {
		snap, delta = s.snap, s.deltaLocked(since)
		s.mu.RUnlock()
		return snap, delta, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sketch == nil {
		sk, err := emd.BuildSketch(s.emdP, s.snapshotLocked().Points)
		if err != nil {
			return nil, nil, err
		}
		s.sketch, s.emdSince, s.snap = sk, s.epoch, nil
	}
	return s.snapshotLocked(), s.deltaLocked(since), nil
}

// deltaLocked encodes the cells churned after epoch since, or returns
// nil when the journal cannot answer (see ServeEMD). Caller holds the
// lock, read or write, and the sketch exists.
func (s *Set) deltaLocked(since uint64) []byte {
	if since == 0 || since > s.epoch || since < s.emdSince {
		return nil
	}
	var refs []emd.CellRef
	for e := since + 1; e <= s.epoch; e++ {
		r, ok := s.journal[e]
		if !ok {
			return nil
		}
		refs = append(refs, r...)
	}
	return s.sketch.EncodeCells(emd.SortCellRefs(refs))
}

// snapshotLocked returns the cached snapshot, building it first if a
// mutation dropped it. Caller holds the write lock.
func (s *Set) snapshotLocked() *Snapshot {
	if s.snap != nil {
		return s.snap
	}
	snap := &Snapshot{Epoch: s.epoch}
	snap.Points = make(metric.PointSet, 0, s.size)
	if s.keyer != nil {
		snap.GapPayloads = make([][]byte, 0, s.size)
	}
	for _, e := range s.entries {
		for i := 0; i < e.count; i++ {
			snap.Points = append(snap.Points, e.pt)
			if s.keyer != nil {
				snap.GapPayloads = append(snap.GapPayloads, e.payload)
			}
		}
	}
	if s.sketch != nil {
		snap.EMDMessage = s.sketch.Encode()
		snap.EMDFingerprint = emd.FingerprintMessage(snap.EMDMessage)
	}
	if s.cfg.Sync != nil {
		snap.IDs = make([]uint64, 0, len(s.entries))
		for _, e := range s.entries {
			snap.IDs = append(snap.IDs, e.id)
		}
		snap.IDFingerprint = s.idFP
		snap.syncCfg = s.cfg.Sync
	}
	s.snap = snap
	return snap
}

// IDFingerprint returns the order-independent fold over the distinct
// points' fingerprints (see Snapshot.IDFingerprint). Zero when Sync is
// disabled.
func (s *Set) IDFingerprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idFP
}

// PointsForIDs maps fingerprints back to the points that carry them,
// returning clones of the found points and the fingerprints this set
// does not (or no longer) hold. It requires Sync state; without it every
// ID is missing. The repair protocol uses it to turn a reconciled ID
// difference into shippable payloads.
func (s *Set) PointsForIDs(ids []uint64) (metric.PointSet, []uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var (
		found   metric.PointSet
		missing []uint64
	)
	for _, id := range ids {
		if e := s.byID[id]; e != nil {
			found = append(found, e.pt.Clone())
		} else {
			missing = append(missing, id)
		}
	}
	return found, missing
}

// MergeAbsent adds, as one epoch, every point of pts that is not already
// in the set (the distinct-point union — anti-entropy's add-wins merge).
// Points already present are skipped rather than gaining multiplicity,
// so applying a peer's repair payload is idempotent under churn races.
// It validates capacity over the points actually missing and applies
// nothing on error; the count of points added is returned.
func (s *Set) MergeAbsent(pts metric.PointSet) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make(metric.PointSet, 0, len(pts))
	seen := make(map[string]bool, len(pts))
	for _, pt := range pts {
		k := pt.Key()
		if s.byKey[k] != nil || seen[k] {
			continue
		}
		seen[k] = true
		fresh = append(fresh, pt)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := s.checkAdd(len(fresh)); err != nil {
		return 0, err
	}
	ops := make([]Op, len(fresh))
	for i, pt := range fresh {
		ops[i] = Op{Point: pt}
	}
	if err := s.log(ops); err != nil {
		return 0, err
	}
	var refs []emd.CellRef
	for _, pt := range fresh {
		refs = append(refs, s.add(pt)...)
	}
	s.bump(refs)
	return len(fresh), nil
}

// idMixer derives the fingerprint mixer from the sync seed; both
// parties of an exact-ID session must use the same derivation, which
// PointID provides for a peer checking what it received.
func idMixer(seed uint64) hashx.Mixer {
	return hashx.MixerFromSeed(seed ^ 0x11dfeed)
}

func (s *Set) pointID(pt metric.Point) uint64 { return pointIDWith(s.idMix, pt) }

func pointIDWith(m hashx.Mixer, pt metric.Point) uint64 {
	h := m.Hash(uint64(len(pt)))
	for _, c := range pt {
		h = m.Hash(h ^ uint64(uint32(c)))
	}
	return h
}

// PointID is the fingerprint a Set with SyncConfig.Seed == seed assigns
// to pt; a repair initiator checks the points it receives with it.
func PointID(seed uint64, pt metric.Point) uint64 {
	return pointIDWith(idMixer(seed), pt)
}

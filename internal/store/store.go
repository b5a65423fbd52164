// Package store is the multi-tenant set registry: one server process
// hosting many named live.Sets, each with its own protocol parameters,
// lifecycle, and epoch'd snapshot caching. It replaces the session
// server's single-set assumption — the RSYN session hello names a
// set, and the store is what that name resolves against.
//
// The registry itself is a read-mostly map under an RWMutex: session
// dispatch and cluster anti-entropy do lock-free-ish Get lookups while
// Create/Drop (rare, administrative) take the write lock. Per-set
// concurrency — mutation serialization, snapshot caching per epoch — is
// owned by live.Set, which carries its own RWMutex; the store never
// holds its lock across set operations, so a slow sketch rebuild on one
// tenant cannot stall lookups of another.
//
// The empty name "" is the default set.
package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/live"
	"repro/internal/metric"
)

// MaxNameLen bounds set names; the RSYN session hello enforces the
// same bound on the wire (netproto.ValidSetName delegates to ValidName).
const MaxNameLen = 255

// ValidName reports whether a set name is admissible: at most
// MaxNameLen bytes with no control characters. The empty name is valid —
// it is the default set.
func ValidName(name string) bool {
	if len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return false
		}
	}
	return true
}

// Stats aggregates the store for operators: set count and the sums of
// the per-set gauges. Epochs sums generation counters, so its growth
// rate is the store-wide mutation rate.
type Stats struct {
	Sets     int
	Points   int    // multiset cardinalities summed
	Distinct int    // distinct points summed
	Epochs   uint64 // epoch counters summed
}

// String formats the aggregate for log lines.
func (s Stats) String() string {
	return fmt.Sprintf("%d sets, %d points (%d distinct), %d epochs",
		s.Sets, s.Points, s.Distinct, s.Epochs)
}

// Persister receives set-lifecycle hooks so a durability layer can
// shadow the registry on disk (see internal/store/durable). OnCreate
// runs before the live set is built: it persists the configuration and
// initial points and returns the write-ahead Logger the new set commits
// every mutation through (nil for none). OnDrop runs after a set leaves
// the registry and removes its persisted state.
type Persister interface {
	OnCreate(name string, cfg live.Config, initial metric.PointSet) (live.Logger, error)
	OnDrop(name string)
}

// Store is a concurrent registry of named live sets. The zero value is
// not usable; construct with New.
type Store struct {
	mu   sync.RWMutex
	sets map[string]*live.Set
	// createMu serializes Create/Drop when a persister is attached: the
	// on-disk lifecycle (mkdir, snapshot, remove) must not interleave
	// between two racing administrative calls on one name. Lookups are
	// unaffected.
	createMu  sync.Mutex
	persister Persister
}

// New builds an empty store.
func New() *Store {
	return &Store{sets: make(map[string]*live.Set)}
}

// SetPersister attaches the durability hooks. Install it before any
// Create; sets created earlier are not retroactively persisted.
func (s *Store) SetPersister(p Persister) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persister = p
}

// Create builds a live set over the initial points and registers it
// under name. It fails on an invalid name, a duplicate, or a set
// configuration the live layer rejects. The build runs outside the
// registry lock (it may shard a full sketch construction), so concurrent
// lookups of other sets never stall; two racing Creates of one name
// resolve to one winner and one duplicate error. With a persister
// attached, the set's config and initial points are persisted first and
// the returned journal logger is wired into the set before it commits
// any mutation.
func (s *Store) Create(name string, cfg live.Config, initial metric.PointSet) (*live.Set, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("store: invalid set name %q", name)
	}
	s.mu.RLock()
	_, dup := s.sets[name]
	p := s.persister
	s.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("store: set %q already exists", name)
	}
	var logger live.Logger
	if p != nil {
		// Serialize persisted creations: the disk state for name must be
		// created exactly once, and a loser of the registration race must
		// be able to roll its directory back without touching the
		// winner's.
		s.createMu.Lock()
		defer s.createMu.Unlock()
		s.mu.RLock()
		_, dup = s.sets[name]
		s.mu.RUnlock()
		if dup {
			return nil, fmt.Errorf("store: set %q already exists", name)
		}
		var err error
		if logger, err = p.OnCreate(name, cfg, initial); err != nil {
			return nil, fmt.Errorf("store: set %q: persist: %w", name, err)
		}
	}
	ls, err := live.NewSet(cfg, initial)
	if err != nil {
		if p != nil {
			p.OnDrop(name)
		}
		return nil, fmt.Errorf("store: set %q: %w", name, err)
	}
	// The initial points were snapshotted by OnCreate; only mutations
	// from here on are journalled.
	ls.SetLogger(logger)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sets[name]; dup {
		// Unreachable with a persister (createMu held); without one the
		// loser simply discards its build.
		return nil, fmt.Errorf("store: set %q already exists", name)
	}
	s.sets[name] = ls
	return ls, nil
}

// Attach registers an existing live set without invoking the persister
// — the recovery path: a set rebuilt from its own persisted state must
// not re-create that state.
func (s *Store) Attach(name string, ls *live.Set) error {
	if !ValidName(name) {
		return fmt.Errorf("store: invalid set name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sets[name]; dup {
		return fmt.Errorf("store: set %q already exists", name)
	}
	s.sets[name] = ls
	return nil
}

// Get resolves a name to its live set.
func (s *Store) Get(name string) (*live.Set, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls, ok := s.sets[name]
	return ls, ok
}

// Drop removes a named set from the registry, reporting whether it was
// present. Sessions already serving a snapshot of the set finish
// undisturbed (snapshots are immutable); new sessions naming it are
// rejected with an unknown-set status.
func (s *Store) Drop(name string) bool {
	s.mu.Lock()
	_, ok := s.sets[name]
	delete(s.sets, name)
	p := s.persister
	s.mu.Unlock()
	if ok && p != nil {
		s.createMu.Lock()
		p.OnDrop(name)
		s.createMu.Unlock()
	}
	return ok
}

// Names lists the registered set names in sorted order (the default
// set's empty name sorts first when present).
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sets))
	for name := range s.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered sets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sets)
}

// Stats aggregates the per-set gauges. It snapshots the registry under
// the read lock, then queries each set without any store lock held.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	sets := make([]*live.Set, 0, len(s.sets))
	for _, ls := range s.sets {
		sets = append(sets, ls)
	}
	s.mu.RUnlock()
	st := Stats{Sets: len(sets)}
	for _, ls := range sets {
		st.Points += ls.Size()
		st.Distinct += ls.Distinct()
		st.Epochs += ls.Epoch()
	}
	return st
}

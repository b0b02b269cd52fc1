// Package locking implements the strict two-phase locking protocol
// (building block 4, Section 3.5.1): shared read locks, an exclusive
// write lock, lock upgrades, and release of all locks at transaction end
// (strictness). The discipline is no-wait: a request that conflicts with
// another holder is refused at once and changes nothing, so no transaction
// ever waits for a lock and no waits-for cycle can form. Serializability
// of the resulting schedules is checked in tests via conflict-graph
// acyclicity.
//
// Beyond the paper's read/write pair, the manager grants
// commutativity-derived modes (IncMode, AppendMode, SetInsMode): two
// operations of the same commuting class may hold the same object
// concurrently because either execution order yields an equivalent state
// ("Limits of Commutativity on Abstract Data Types"). The compatibility
// matrix is not asserted by hand — it is pinned against the
// prover-discharged commutativity spec comm.sw, both statically
// (speccatlint -comm, rule comm-matrix) and at test time
// (TestMatrixMatchesDischargedSpec).
package locking

import (
	_ "embed"
	"errors"
	"fmt"
	"slices"
)

// Mode is a lock mode.
type Mode int

// Lock modes. Read and Write are the classic shared/exclusive pair; the
// remaining modes each license exactly one class of commuting updates.
// The //comm:mode directives bind each mode to its commutativity class in
// comm.sw for the commcheck layer.
const (
	Read       Mode = iota + 1 //comm:mode read
	Write                      //comm:mode write
	IncMode                    //comm:mode inc
	AppendMode                 //comm:mode append
	SetInsMode                 //comm:mode setins
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case IncMode:
		return "inc"
	case AppendMode:
		return "append"
	case SetInsMode:
		return "setins"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CommSpec is the commutativity specification the compatibility matrix is
// derived from. Each compatible pair of modes corresponds to a Safe<a><b>
// theorem in it, discharged by the resolution prover from the generic
// Swap axiom plus that pair's Commutes fact; the absence of a theorem is
// the absence of a commutativity argument, and the pair conflicts.
//
//go:embed comm.sw
var CommSpec string

// compat is the commutativity-derived compatibility matrix: compat[a][b]
// reports whether a holder in mode a admits a second holder in mode b.
// Missing entries mean incompatible. Every true entry must be backed by a
// discharged Safe theorem in comm.sw and every absent pair by the absence
// of one — commcheck (rule comm-matrix) and the spec cross-check test
// both fail on any divergence.
//
//comm:matrix comm.sw
//lint:allow noglobalstate immutable lookup table pinned against comm.sw
var compat = map[Mode]map[Mode]bool{
	Read:       {Read: true},
	Write:      {},
	IncMode:    {IncMode: true},
	AppendMode: {AppendMode: true},
	SetInsMode: {SetInsMode: true},
}

// Compatible reports whether modes a and b may be held on one object by
// two different transactions at once. The relation is symmetric.
func Compatible(a, b Mode) bool { return compat[a][b] }

// Covers reports whether holding h already satisfies a request for r
// without regranting: the exact mode, or Write, which is exclusive and
// so dominates every other mode's rights.
func Covers(h, r Mode) bool { return h == r || h == Write }

// Join is the least mode granting the rights of both a and b (zero means
// "not held"). Distinct non-write modes have no common weaker upper
// bound, so any mixed combination escalates to Write — the upgrade path.
func Join(a, b Mode) Mode {
	switch {
	case a == 0:
		return b
	case b == 0 || a == b:
		return a
	default:
		return Write
	}
}

// Modes lists every mode, in declaration order.
func Modes() []Mode { return []Mode{Read, Write, IncMode, AppendMode, SetInsMode} }

// ErrNotHeld is returned when releasing a lock that is not held.
var ErrNotHeld = errors.New("locking: lock not held")

// Manager is a no-wait strict 2PL lock manager for one site. The zero
// value is not usable; call NewManager.
type Manager struct {
	// objects[key] maps each transaction holding key to its granted mode.
	// The paper's "read counter + 1-bit write flag" generalizes to this
	// map once commuting modes can share an object. A key nobody holds
	// has no entry.
	objects map[string]map[string]Mode
	// held[txn] maps each key txn holds to its granted mode: all that
	// ReleaseAll visits.
	held map[string]map[string]Mode
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{objects: map[string]map[string]Mode{}, held: map[string]map[string]Mode{}}
}

// Holds reports the mode in which txn holds key (0 if none).
func (m *Manager) Holds(txn, key string) Mode {
	return m.held[txn][key]
}

// Acquire requests key in mode for txn. The lock is granted, and Acquire
// returns true, when txn already holds key at sufficient strength or when
// the mode it would end up holding (its current mode joined with the
// request) is compatible with every other holder. Otherwise the request
// is refused: Acquire returns false and the manager is unchanged, so the
// caller aborts instead of waiting. The callback is ignored and the error
// is always nil; both stay for callers written against the signature.
func (m *Manager) Acquire(txn, key string, mode Mode, _ func()) (bool, error) {
	cur := m.held[txn][key]
	if cur != 0 && Covers(cur, mode) {
		return true, nil
	}
	eff := Join(cur, mode)
	holders := m.objects[key]
	for h, hm := range holders {
		if h != txn && !Compatible(hm, eff) {
			return false, nil
		}
	}
	if holders == nil {
		holders = map[string]Mode{}
		m.objects[key] = holders
	}
	holders[txn] = eff
	if m.held[txn] == nil {
		m.held[txn] = map[string]Mode{}
	}
	m.held[txn][key] = eff
	return true, nil
}

// ReleaseAll releases every lock held by txn (strict 2PL: all locks are
// held to transaction end, then released together) and forgets objects
// left idle. It costs O(k) in the k keys txn holds, not in the number of
// keys the manager holds.
func (m *Manager) ReleaseAll(txn string) {
	for key := range m.held[txn] {
		m.unhold(txn, key)
	}
	delete(m.held, txn)
}

// Release drops one lock early (non-strict use; tests of 2PL violations).
func (m *Manager) Release(txn, key string) error {
	if m.held[txn][key] == 0 {
		return fmt.Errorf("%w: %s on %s", ErrNotHeld, txn, key)
	}
	delete(m.held[txn], key)
	m.unhold(txn, key)
	return nil
}

// unhold removes txn from key's holders and forgets key once nobody
// holds it.
func (m *Manager) unhold(txn, key string) {
	holders := m.objects[key]
	delete(holders, txn)
	if len(holders) == 0 {
		delete(m.objects, key)
	}
}

// Holders reports the current holders of key, sorted.
func (m *Manager) Holders(key string) []string {
	out := make([]string, 0, len(m.objects[key]))
	for h := range m.objects[key] {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

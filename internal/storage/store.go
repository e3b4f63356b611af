package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kdb/internal/fault"
	"kdb/internal/term"
)

// ErrDurability matches (via errors.Is) every error meaning "the
// in-memory state changed but the change may not have reached stable
// storage": a WAL append or fsync failure, a poisoned log, a failed
// checkpoint. Callers that must distinguish "your request was wrong"
// from "the storage under this database is failing" — the server's
// circuit breaker, the chaos harness's invariant checks — key on it.
var ErrDurability = errors.New("storage: durability failure")

// Store aggregates the relations of one extensional database. A Store is
// either purely in-memory (NewMemory) or durable (Open), in which case
// every insert is appended to a write-ahead log and Checkpoint folds the
// log into a snapshot. All methods are safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	//kdb:guarded-by mu
	rels map[string]*Relation

	dir string // empty for in-memory stores
	wal *wal

	// obs, when set, receives WAL and snapshot timing events. Shared
	// with the WAL by pointer.
	obs observerHolder
}

// NewMemory returns an empty, non-durable store.
func NewMemory() *Store {
	return &Store{rels: make(map[string]*Relation)}
}

// Open returns a durable store rooted at dir, creating it if needed and
// recovering state from the snapshot and write-ahead log if present.
// A torn final WAL record (crash mid-append) is truncated away.
func Open(dir string) (*Store, error) {
	if err := fault.Inject(fault.SiteStoreOpen); err != nil {
		return nil, fmt.Errorf("storage: open: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	removeSnapshotOrphans(dir)
	s := &Store{rels: make(map[string]*Relation), dir: dir}
	if err := s.loadSnapshot(filepath.Join(dir, snapshotName)); err != nil {
		return nil, err
	}
	w, err := openWAL(filepath.Join(dir, walName), func(pred string, t Tuple, tombstone bool) error {
		if tombstone {
			_, err := s.deleteLocked(pred, t)
			return err
		}
		_, err := s.insertLocked(pred, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.obs = &s.obs
	s.wal = w
	return s, nil
}

// removeSnapshotOrphans sweeps kdb.snap.tmp* files left behind by a
// crash mid-snapshot. The deferred cleanup in writeSnapshot covers
// every error return, but a process death between temp creation and
// rename leaves the file on disk — and without this sweep such
// orphans would accumulate across restarts.
func removeSnapshotOrphans(dir string) {
	// Best-effort: an injected fault models an unreadable directory or
	// failed unlink; the orphan then simply survives until the next
	// open, which the faultsite suite proves is harmless.
	if fault.Inject(fault.SiteSnapshotSweep) != nil {
		return
	}
	matches, err := filepath.Glob(filepath.Join(dir, "kdb.snap.tmp*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// Dir returns the durable directory, or "" for in-memory stores.
func (s *Store) Dir() string { return s.dir }

// DurabilityErr returns the sticky error poisoning the write-ahead
// log, or nil while the log is healthy (always nil for in-memory
// stores). A poisoned log rejects every append until a successful
// Checkpoint captures the state and resets it; health surfaces
// (the server's /healthz) report it per tenant.
func (s *Store) DurabilityErr() error {
	if s.wal == nil {
		return nil
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.failed
}

// Relation returns the relation for pred, or nil if no fact for pred has
// been stored.
func (s *Store) Relation(pred string) *Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels[pred]
}

// Preds returns the stored predicate names, sorted.
func (s *Store) Preds() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rels))
	for p := range s.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored tuples for pred.
func (s *Store) Count(pred string) int {
	if r := s.Relation(pred); r != nil {
		return r.Len()
	}
	return 0
}

// Insert stores a fact, reporting whether it was new. The first insert
// for a predicate fixes its arity.
func (s *Store) Insert(pred string, t Tuple) (bool, error) {
	fresh, err := s.insertLocked(pred, t)
	if err != nil || !fresh {
		return fresh, err
	}
	if s.wal != nil {
		if err := s.wal.append(pred, t); err != nil {
			return true, durabilityErr("fact stored but WAL append failed", err)
		}
	}
	return true, nil
}

// InsertAtoms stores ground atoms as one unit of durability, returning
// how many were new: the new facts are logged as one batch, acknowledged
// by a single fsync (a crash in the middle keeps a valid prefix). A fact
// that fails validation stops the batch; those before it are stored and
// logged all the same, so RAM and log only differ under ErrDurability.
func (s *Store) InsertAtoms(atoms []term.Atom) (int, error) {
	var payloads [][]byte // of the new facts, on a durable store
	stored := 0
	var err error
	for _, a := range atoms {
		var payload []byte
		if s.wal != nil {
			if payload, err = encodeFact(a.Pred, Tuple(a.Args)); err != nil {
				break
			}
		}
		var fresh bool
		if fresh, err = s.insertLocked(a.Pred, Tuple(a.Args)); err != nil {
			break
		}
		if fresh {
			stored++
			if s.wal != nil {
				payloads = append(payloads, payload)
			}
		}
	}
	if len(payloads) > 0 {
		if werr := s.wal.appendPayloads(payloads...); werr != nil {
			return stored, durabilityErr("facts stored but WAL append failed", werr)
		}
	}
	return stored, err
}

// durabilityErr wraps a WAL failure so it matches ErrDurability
// without double-tagging errors that already carry it (the poisoned-
// log error appendPayloads returns).
func durabilityErr(msg string, err error) error {
	if errors.Is(err, ErrDurability) {
		return fmt.Errorf("storage: %s: %w", msg, err)
	}
	return fmt.Errorf("%w: %s: %w", ErrDurability, msg, err)
}

func (s *Store) insertLocked(pred string, t Tuple) (bool, error) {
	if pred == "" {
		// The WAL tombstone encoding relies on insert payloads never
		// starting with a 0x00 byte, i.e. on nonempty predicate names.
		return false, fmt.Errorf("storage: empty predicate name")
	}
	s.mu.Lock()
	r, ok := s.rels[pred]
	if !ok {
		var err error
		r, err = NewRelation(len(t))
		if err != nil {
			s.mu.Unlock()
			return false, err
		}
		s.rels[pred] = r
	}
	s.mu.Unlock()
	return r.Insert(t)
}

// Delete removes a stored fact, reporting whether it was present. On a
// durable store the deletion is logged as a WAL tombstone, so it
// survives a crash before the next checkpoint.
func (s *Store) Delete(pred string, t Tuple) (bool, error) {
	removed, err := s.deleteLocked(pred, t)
	if err != nil || !removed {
		return removed, err
	}
	if s.wal != nil {
		if err := s.wal.appendDelete(pred, t); err != nil {
			return true, durabilityErr("fact removed but WAL append failed", err)
		}
	}
	return true, nil
}

func (s *Store) deleteLocked(pred string, t Tuple) (bool, error) {
	s.mu.RLock()
	r := s.rels[pred]
	s.mu.RUnlock()
	if r == nil || r.Arity() != len(t) {
		return false, nil
	}
	return r.Delete(t)
}

// DeleteAtom removes a ground atom's fact, reporting whether it was
// present.
func (s *Store) DeleteAtom(a term.Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("storage: fact %v is not ground", a)
	}
	return s.Delete(a.Pred, Tuple(a.Args))
}

// InsertAtom stores a ground atom as a fact.
func (s *Store) InsertAtom(a term.Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("storage: fact %v is not ground", a)
	}
	return s.Insert(a.Pred, Tuple(a.Args))
}

// Contains reports whether the ground atom is stored.
func (s *Store) Contains(a term.Atom) bool {
	r := s.Relation(a.Pred)
	if r == nil || r.Arity() != len(a.Args) {
		return false
	}
	return r.Contains(Tuple(a.Args))
}

// Facts returns all stored facts for pred as atoms, in the relation's
// scan order (insertion order as long as nothing was ever deleted).
func (s *Store) Facts(pred string) []term.Atom {
	r := s.Relation(pred)
	if r == nil {
		return nil
	}
	out := make([]term.Atom, 0, r.Len())
	r.Scan(func(t Tuple) bool {
		out = append(out, term.Atom{Pred: pred, Args: t.Clone()})
		return true
	})
	return out
}

// Checkpoint writes a snapshot of the full store and truncates the WAL.
// It is a no-op for in-memory stores.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	if err := s.writeSnapshot(filepath.Join(s.dir, snapshotName)); err != nil {
		return durabilityErr("checkpoint", err)
	}
	// The crash window: the snapshot is published but the log still
	// holds the pre-checkpoint records. Recovery from here is safe —
	// replaying the old log over the new snapshot is idempotent — and
	// the chaos tests prove it by arming checkpoint.reset (the
	// failpoint lives at the top of wal.reset, before any truncation).
	if err := s.wal.reset(); err != nil {
		return durabilityErr("checkpoint", err)
	}
	return nil
}

// Close flushes and closes the WAL. The store must not be used after.
func (s *Store) Close() error {
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

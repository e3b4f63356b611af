// Package catalog maintains the schema of a knowledge-rich database: the
// mutually disjoint predicate sets P (extensional), R (built-in) and S
// (intensional) of the paper's Section 2.1, each predicate's arity, and
// the optional schema annotations (@key, @name) used by the Section 6
// extensions.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"kdb/internal/term"
)

// Class partitions predicates into the paper's three disjoint sets.
type Class uint8

// Predicate classes.
const (
	// ClassEDB is a stored predicate (set P): defined by its facts.
	ClassEDB Class = iota
	// ClassIDB is a derived predicate (set S): defined by its rules.
	ClassIDB
	// ClassBuiltin is a built-in comparison predicate (set R).
	ClassBuiltin
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassEDB:
		return "EDB"
	case ClassIDB:
		return "IDB"
	case ClassBuiltin:
		return "builtin"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Pred describes one predicate.
type Pred struct {
	Name  string
	Arity int
	Class Class
	// Keys lists the declared candidate keys, each a sorted set of 1-based
	// column numbers. Used by the possibility checker (§6 extension 3).
	Keys [][]int
	// Display is the preferred rendering name (from @name), used when the
	// Imielinski transformation introduces artificial predicates (§5.3).
	Display string
}

// Functor returns "name/arity". A predicate known only from a @name
// declaration has no arity yet and renders as its bare name.
func (p *Pred) Functor() string {
	if p.Arity < 0 {
		return p.Name
	}
	return fmt.Sprintf("%s/%d", p.Name, p.Arity)
}

// clone returns an independent copy (Keys deep-copied), so accessors can
// hand descriptors across the catalog's lock boundary.
func (p *Pred) clone() *Pred {
	cp := *p
	if p.Keys != nil {
		cp.Keys = make([][]int, len(p.Keys))
		for i, k := range p.Keys {
			cp.Keys[i] = append([]int(nil), k...)
		}
	}
	return &cp
}

// Catalog is the schema of one knowledge base. The zero value is not
// usable; call New. All methods are safe for concurrent use; accessors
// return copies, so a descriptor read by one goroutine is never mutated
// by a concurrent Promote/AddKey/SetDisplay.
type Catalog struct {
	mu    sync.RWMutex
	preds map[string]*Pred // keyed by name (arity is enforced consistent)
}

// New returns an empty catalog with the built-in comparison predicates
// pre-registered.
func New() *Catalog {
	c := &Catalog{preds: make(map[string]*Pred)}
	for _, op := range []string{term.PredEq, term.PredNe, term.PredLt, term.PredLe, term.PredGt, term.PredGe} {
		c.preds[op] = &Pred{Name: op, Arity: 2, Class: ClassBuiltin}
	}
	return c
}

// Lookup returns a copy of the predicate descriptor, or nil if unknown.
func (c *Catalog) Lookup(name string) *Pred {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p := c.preds[name]; p != nil {
		return p.clone()
	}
	return nil
}

// Arity returns the declared arity of a predicate and whether it is
// known. A predicate known only from a @name declaration reports
// (-1, true).
func (c *Catalog) Arity(name string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p := c.preds[name]; p != nil {
		return p.Arity, true
	}
	return 0, false
}

// Class returns the class of a predicate name; unknown names report
// ClassEDB (an unknown predicate in a query body is an empty stored
// relation, matching standard Datalog semantics) and false.
func (c *Catalog) Class(name string) (Class, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p := c.preds[name]; p != nil {
		return p.Class, true
	}
	return ClassEDB, false
}

// IsIDB reports whether the predicate is intensional.
func (c *Catalog) IsIDB(name string) bool {
	cl, ok := c.Class(name)
	return ok && cl == ClassIDB
}

// IsEDB reports whether the predicate is extensional (stored).
func (c *Catalog) IsEDB(name string) bool {
	cl, ok := c.Class(name)
	return ok && cl == ClassEDB
}

// Preds returns copies of all registered predicates of the given class,
// sorted by name for deterministic iteration.
func (c *Catalog) Preds(class Class) []*Pred {
	c.mu.RLock()
	var out []*Pred
	for _, p := range c.preds {
		if p.Class == class {
			out = append(out, p.clone())
		}
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Declare registers a predicate with the given class and arity. It is an
// error to re-declare with a different arity or a conflicting class.
// Re-declaring identically is a no-op. The returned descriptor is a
// copy.
func (c *Catalog) Declare(name string, arity int, class Class) (*Pred, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.declareLocked(name, arity, class)
	if err != nil {
		return nil, err
	}
	return p.clone(), nil
}

func (c *Catalog) declareLocked(name string, arity int, class Class) (*Pred, error) {
	if term.IsComparisonPred(name) && class != ClassBuiltin {
		return nil, fmt.Errorf("catalog: %q is a built-in comparison and cannot be redefined", name)
	}
	if p, ok := c.preds[name]; ok {
		if p.Arity != arity {
			return nil, fmt.Errorf("catalog: predicate %s used with arity %d but previously with arity %d", name, arity, p.Arity)
		}
		if p.Class != class {
			return nil, fmt.Errorf("catalog: predicate %s is %s but used as %s (the sets P, R, S are disjoint)", name, p.Class, class)
		}
		return p, nil
	}
	p := &Pred{Name: name, Arity: arity, Class: class}
	c.preds[name] = p
	return p, nil
}

// Promote upgrades an EDB predicate to IDB. This is how a predicate that
// was first seen in a ground fact becomes intensional when a later rule
// defines it: its facts become bodiless rules (paper §2.1 allows rules
// with n = 0 subgoals).
func (c *Catalog) Promote(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.preds[name]
	if !ok {
		return fmt.Errorf("catalog: cannot promote unknown predicate %s", name)
	}
	if p.Class == ClassBuiltin {
		return fmt.Errorf("catalog: cannot promote built-in %s", name)
	}
	p.Class = ClassIDB
	return nil
}

// AddKey records a candidate key (1-based column numbers) for the
// predicate. The predicate must already be declared with matching arity.
func (c *Catalog) AddKey(name string, arity int, cols []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.preds[name]
	if !ok {
		// Allow a @key declaration to precede the first fact.
		var err error
		p, err = c.declareLocked(name, arity, ClassEDB)
		if err != nil {
			return err
		}
	}
	if p.Arity != arity {
		return fmt.Errorf("catalog: @key %s/%d conflicts with arity %d", name, arity, p.Arity)
	}
	key := append([]int(nil), cols...)
	sort.Ints(key)
	for i, col := range key {
		if col < 1 || col > arity {
			return fmt.Errorf("catalog: @key %s/%d column %d out of range", name, arity, col)
		}
		if i > 0 && key[i-1] == col {
			return fmt.Errorf("catalog: @key %s/%d repeats column %d", name, arity, col)
		}
	}
	for _, existing := range p.Keys {
		if equalInts(existing, key) {
			return nil // idempotent
		}
	}
	p.Keys = append(p.Keys, key)
	return nil
}

// SetDisplay records the preferred display name for a predicate,
// declaring it lazily if needed (the artificial predicates of the
// transformation may not exist yet when the program is loaded).
func (c *Catalog) SetDisplay(name, display string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.preds[name]
	if !ok {
		p = &Pred{Name: name, Arity: -1, Class: ClassIDB}
		c.preds[name] = p
	}
	p.Display = display
}

// DisplayName returns the preferred rendering name for a predicate
// (falling back to the predicate name itself).
func (c *Catalog) DisplayName(name string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p, ok := c.preds[name]; ok && p.Display != "" {
		return p.Display
	}
	return name
}

// String summarizes the catalog for diagnostics.
func (c *Catalog) String() string {
	var b strings.Builder
	for _, class := range []Class{ClassEDB, ClassIDB, ClassBuiltin} {
		ps := c.Preds(class)
		if len(ps) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:", class)
		for _, p := range ps {
			fmt.Fprintf(&b, " %s", p.Functor())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

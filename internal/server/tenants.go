package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kdb/internal/kb"
)

// ErrOverloaded is returned by Acquire when the open-KB bound is
// reached and every open knowledge base is busy serving requests, so
// none can be evicted. The server maps it to 503.
var ErrOverloaded = errors.New("server: too many open knowledge bases")

// errManagerClosed is returned by Acquire after Close.
var errManagerClosed = errors.New("server: manager is closed")

// tenant is one named knowledge base with its usage bookkeeping.
type tenant struct {
	name string
	k    *kb.KB
	// refs counts requests currently inside the KB; only a tenant with
	// refs == 0 may be evicted.
	refs int
	// lastUsed is when the last request released the tenant.
	lastUsed time.Time
}

// Manager owns the server's knowledge bases: one per tenant name,
// opened lazily on first use, evicted when idle or when the open-KB
// bound is exceeded. All methods are safe for concurrent use.
type Manager struct {
	// root is the directory holding one store directory per tenant;
	// empty means every tenant is an independent in-memory KB.
	root string
	// maxOpen bounds the number of simultaneously open KBs.
	maxOpen int
	// idle is how long an unused KB stays open; 0 disables the janitor.
	idle time.Duration
	// newKB builds the KB for a tenant (options, ceiling).
	newKB func(name string) (*kb.KB, error)
	// onEvict observes every eviction (metrics); may be nil.
	onEvict func()
	// onOpenCount observes the open-KB count after each change; may be nil.
	onOpenCount func(n int)

	// baseCtx bounds the manager's background work: the janitor exits
	// when it is canceled, even if Close is never reached.
	baseCtx context.Context

	mu sync.Mutex
	//kdb:guarded-by mu
	tenants map[string]*tenant
	//kdb:guarded-by mu
	closed  bool
	stop    chan struct{}
	janitor sync.WaitGroup

	// view is a lock-free copy of the open-tenant set, republished on
	// every change. It exists for readers that must not take m.mu — the
	// sys_tenant source runs inside query evaluation, and Close holds
	// m.mu while draining in-flight queries, so a Snapshot there would
	// deadlock shutdown.
	view atomic.Pointer[map[string]*kb.KB]
}

// newManager builds a Manager; newKB opens or creates the KB for a
// tenant name (the manager serializes calls to it per name). ctx
// bounds the janitor goroutine's lifetime alongside Close.
func newManager(ctx context.Context, root string, maxOpen int, idle time.Duration, newKB func(string) (*kb.KB, error)) *Manager {
	m := &Manager{
		root:    root,
		maxOpen: maxOpen,
		idle:    idle,
		newKB:   newKB,
		baseCtx: ctx,
		tenants: make(map[string]*tenant),
		stop:    make(chan struct{}),
	}
	if idle > 0 {
		m.janitor.Add(1)
		go m.runJanitor()
	}
	return m
}

// validName reports whether a tenant name is acceptable: nonempty,
// at most 64 bytes, lower-case letters, digits, '_' and '-' only. The
// alphabet keeps names safe as path components (no separators, no "..")
// and as metric label values.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// errBadName reports an invalid tenant name (mapped to 404).
type errBadName struct{ name string }

func (e *errBadName) Error() string {
	return fmt.Sprintf("server: invalid knowledge-base name %q (want [a-z0-9_-]{1,64})", e.name)
}

// Acquire returns the tenant's KB, opening it on first use, and pins it
// against eviction until the returned release function is called.
func (m *Manager) Acquire(name string) (*kb.KB, func(), error) {
	if !validName(name) {
		return nil, nil, &errBadName{name: name}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, errManagerClosed
	}
	t := m.tenants[name]
	if t == nil {
		if err := m.makeRoomLocked(); err != nil {
			return nil, nil, err
		}
		k, err := m.newKB(name)
		if err != nil {
			return nil, nil, err
		}
		t = &tenant{name: name, k: k}
		m.tenants[name] = t
		m.publishLocked()
		if m.onOpenCount != nil {
			m.onOpenCount(len(m.tenants))
		}
	}
	t.refs++
	return t.k, func() { m.release(t) }, nil
}

// makeRoomLocked evicts the least-recently-used idle tenant when the
// open-KB bound is reached. Callers hold m.mu.
//
//kdb:locked mu
func (m *Manager) makeRoomLocked() error {
	if m.maxOpen <= 0 || len(m.tenants) < m.maxOpen {
		return nil
	}
	var victim *tenant
	for _, t := range m.tenants {
		if t.refs > 0 {
			continue
		}
		if victim == nil || t.lastUsed.Before(victim.lastUsed) {
			victim = t
		}
	}
	if victim == nil {
		return ErrOverloaded
	}
	m.evictLocked(victim)
	return nil
}

// evictLocked closes and forgets one idle tenant. Callers hold m.mu.
//
//kdb:locked mu
func (m *Manager) evictLocked(t *tenant) {
	delete(m.tenants, t.name)
	m.publishLocked()
	// Close waits for in-flight queries; refs == 0 guarantees none are
	// running, so this cannot block on evaluation work.
	_ = t.k.Close()
	if m.onEvict != nil {
		m.onEvict()
	}
	if m.onOpenCount != nil {
		m.onOpenCount(len(m.tenants))
	}
}

// release unpins a tenant after a request finishes.
func (m *Manager) release(t *tenant) {
	m.mu.Lock()
	t.refs--
	t.lastUsed = time.Now()
	m.mu.Unlock()
}

// runJanitor closes tenants that have been idle longer than m.idle.
func (m *Manager) runJanitor() {
	defer m.janitor.Done()
	interval := m.idle / 2
	if interval < time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.baseCtx.Done():
			return
		case <-ticker.C:
			m.sweep()
		}
	}
}

// sweep evicts every idle tenant past the idle deadline.
func (m *Manager) sweep() {
	cutoff := time.Now().Add(-m.idle)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, t := range m.tenants {
		if t.refs == 0 && t.lastUsed.Before(cutoff) {
			m.evictLocked(t)
		}
	}
}

// Open lists the names of the currently open tenants, sorted.
func (m *Manager) Open() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the currently open tenants keyed by name. The KBs
// are not pinned: a concurrently evicted KB is safe to interrogate for
// health (its methods return ErrClosed) but not to serve requests from.
func (m *Manager) Snapshot() map[string]*kb.KB {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*kb.KB, len(m.tenants))
	for name, t := range m.tenants {
		out[name] = t.k
	}
	return out
}

// publishLocked republishes the lock-free tenant view after a change to
// m.tenants. Callers hold m.mu.
//
//kdb:locked mu
func (m *Manager) publishLocked() {
	v := make(map[string]*kb.KB, len(m.tenants))
	for name, t := range m.tenants {
		v[name] = t.k
	}
	m.view.Store(&v)
}

// View returns the last published open-tenant set without taking m.mu.
// The KBs are not pinned (see Snapshot); unlike Snapshot, View is safe
// to call from inside query evaluation and during Close.
func (m *Manager) View() map[string]*kb.KB {
	if v := m.view.Load(); v != nil {
		return *v
	}
	return nil
}

// Closed reports whether Close has begun; the health probe uses it.
func (m *Manager) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Dir returns the store directory of a tenant, or "" for in-memory
// tenants.
func (m *Manager) Dir(name string) string {
	if m.root == "" {
		return ""
	}
	return filepath.Join(m.root, name)
}

// Close stops the janitor and closes every open KB. Later Acquire
// calls fail; releases of in-flight requests remain safe.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.stop)
	var errs []error
	for name, t := range m.tenants {
		delete(m.tenants, name)
		m.publishLocked()
		if err := t.k.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing %s: %w", name, err))
		}
	}
	m.mu.Unlock()
	m.janitor.Wait()
	return errors.Join(errs...)
}

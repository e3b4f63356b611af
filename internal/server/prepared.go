package server

import (
	"container/list"
	"sync"

	"kdb/internal/obs"
	"kdb/internal/parser"
)

// prepared is one cached statement: the parsed template, which does not
// depend on the tenant's schema.
// The template is immutable — executions bind placeholders into fresh
// copies (parser.BindPlaceholders) — so one entry serves concurrent
// requests. The KB checks every execution against the generation it
// runs on, so no entry goes stale.
type prepared struct {
	key   string
	query parser.Query
}

// preparedCache is an LRU of parsed statements, keyed by tenant and
// statement text. A hit skips the parse and the placeholder check.
type preparedCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // most recently used at the front; values are *prepared
	byKey map[string]*list.Element

	hits   *obs.Counter
	misses *obs.Counter
}

func newPreparedCache(max int, reg *obs.Registry) *preparedCache {
	if max <= 0 {
		max = 256
	}
	c := &preparedCache{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
	if reg != nil {
		reg.SetHelp("kdb_server_prepared_total", "Prepared-statement cache lookups by result.")
		c.hits = reg.Counter("kdb_server_prepared_total", "result", "hit")
		c.misses = reg.Counter("kdb_server_prepared_total", "result", "miss")
	}
	return c
}

// Get returns the prepared form of stmt for the tenant, parsing it on a
// miss. The bool reports a cache hit.
func (c *preparedCache) Get(tenantName, stmt string) (*prepared, bool, error) {
	key := tenantName + "\x00" + stmt
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		return el.Value.(*prepared), true, nil
	}
	c.mu.Unlock()
	c.misses.Inc()

	q, err := parser.ParseQuery(stmt)
	if err != nil {
		return nil, false, err
	}
	// A template whose placeholders are not $1..$n is refused before it
	// is cached: no argument list can bind it.
	if _, err := parser.CountPlaceholders(q); err != nil {
		return nil, false, err
	}
	p := &prepared{key: key, query: q}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Another request prepared the same statement concurrently; keep
		// the incumbent.
		c.ll.MoveToFront(el)
		return el.Value.(*prepared), false, nil
	}
	c.byKey[key] = c.ll.PushFront(p)
	for c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.byKey, old.Value.(*prepared).key)
	}
	return p, false, nil
}

// Len returns the number of cached entries.
func (c *preparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

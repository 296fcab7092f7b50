package core

import (
	"sync"

	"github.com/audb/audb/internal/schema"
)

// Catalog is a concurrency-safe collection of named AU-relations: the
// mutable registry behind a Database. Registration and lookup may race
// freely with query execution because executors never see the live map —
// they run over an immutable Snapshot taken when the query starts.
// Enumeration (Tables, and every diagnostic built on it) is always in
// sorted name order, never Go map order.
//
// The catalog guards the name → relation mapping only; the relations
// themselves are shared. Mutating a registered relation (e.g. adding rows
// to its table) while queries are in flight is the caller's race to avoid.
type Catalog struct {
	mu   sync.RWMutex
	rels DB
	obs  CatalogObserver
	// seen tracks relations this catalog has already compacted, so
	// re-registering a relation that queries may be reading never
	// mutates its representation again (Compact runs once, before the
	// relation's first publication, under the same lock readers take
	// snapshots under). Only registered relations are tracked: Drop and
	// every replacement forget the relation they unregister (forget).
	seen map[*Relation]struct{}
}

// CatalogObserver is notified of catalog mutations — the hook the
// statistics registry (internal/stats) uses to keep per-table statistics
// in sync with registration. Notifications are delivered under the
// catalog's lock, in mutation order, so an observer always sees the same
// sequence of events the catalog applied; implementations must therefore
// be fast and must not call back into the catalog.
type CatalogObserver interface {
	// Registered reports that r is now registered under name (a
	// replacement delivers Registered for the new relation only).
	Registered(name string, r *Relation)
	// Dropped reports that the table is gone (also delivered when a
	// case-variant registration displaces an existing entry).
	Dropped(name string)
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: DB{}, seen: map[*Relation]struct{}{}}
}

// SetObserver installs the mutation observer (nil uninstalls). Install it
// before registering tables; events are not replayed.
func (c *Catalog) SetObserver(o CatalogObserver) {
	c.mu.Lock()
	c.obs = o
	c.mu.Unlock()
}

// Register adds or replaces a relation under the given name. Names are
// case-insensitive to match the planner (which resolves them against a
// lowercased schema catalog): registering a case-variant of an existing
// name replaces it, so the catalog never holds two tables a query could
// not tell apart.
//
// The first time a relation is registered, the catalog compacts it by
// the automatic storage rule (see Compact). This happens under the
// catalog lock before the relation becomes visible, so queries — which
// snapshot under the same lock — only ever see a settled representation;
// re-registering the same relation never re-compacts it.
func (c *Catalog) Register(name string, r *Relation) {
	c.registerWith(name, r, true)
}

// RegisterPrebuilt registers a relation whose representation was already
// chosen (e.g. by RelationBuilder.Finish or a replacement built for a
// flip), skipping compaction.
func (c *Catalog) RegisterPrebuilt(name string, r *Relation) {
	c.registerWith(name, r, false)
}

// registerWith is the insertion step shared by the Register variants.
func (c *Catalog) registerWith(name string, r *Relation, compact bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, done := c.seen[r]; !done {
		if compact {
			r.Compact(StoragePolicy{})
		}
		c.seen[r] = struct{}{}
	}
	var prev *Relation
	if k, ok := schema.ResolveFold(c.rels, name); ok {
		prev = c.rels[k]
		if k != name {
			delete(c.rels, k)
			if c.obs != nil {
				c.obs.Dropped(k)
			}
		}
	}
	c.rels[name] = r
	if c.obs != nil {
		c.obs.Registered(name, r)
	}
	if prev != nil && prev != r {
		c.forget(prev)
	}
}

// ReplaceIf atomically replaces the relation registered under name with
// repl, but only when the current entry is still old — the compare-and-
// swap a representation flip needs so it cannot resurrect a table that a
// concurrent Register or Drop changed meanwhile. It reports whether the
// swap happened.
func (c *Catalog) ReplaceIf(name string, old, repl *Relation) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := schema.ResolveFold(c.rels, name)
	if !ok || c.rels[k] != old {
		return false
	}
	c.seen[repl] = struct{}{}
	c.rels[k] = repl
	if c.obs != nil {
		c.obs.Registered(k, repl)
	}
	if old != repl {
		c.forget(old)
	}
	return true
}

// Drop removes a relation, resolving the name the way queries do
// (exact, then case-insensitive); it is a no-op for unknown names.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := schema.ResolveFold(c.rels, name); ok {
		r := c.rels[k]
		delete(c.rels, k)
		if c.obs != nil {
			c.obs.Dropped(k)
		}
		c.forget(r)
	}
}

// forget drops r's compaction marker once r is no longer registered under
// any name, so seen stays bounded by the live table count however often
// tables are replaced. Callers hold c.mu.
func (c *Catalog) forget(r *Relation) {
	//lint:allow audblint-catalogsnap runs under the caller's c.mu.Lock
	for _, other := range c.rels {
		if other == r {
			return
		}
	}
	//lint:allow audblint-catalogsnap runs under the caller's c.mu.Lock
	delete(c.seen, r)
}

// Lookup returns the relation registered under name, resolving it the
// way queries do (exact, then case-insensitive).
func (c *Catalog) Lookup(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return schema.LookupFold(c.rels, name)
}

// Len returns the number of registered relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// Tables lists the registered names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rels.Names()
}

// Snapshot returns an immutable point-in-time view of the catalog for one
// query execution. The map is copied (so later Register/Drop calls cannot
// race with the executor); the relations are shared.
func (c *Catalog) Snapshot() DB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(DB, len(c.rels))
	for n, r := range c.rels {
		out[n] = r
	}
	return out
}

// Schemas returns a catalog view for planning, keyed by lowercased name.
func (c *Catalog) Schemas() map[string]schema.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rels.Schemas()
}

// Names returns the table names of a raw AU-database in sorted order, for
// deterministic diagnostics.
func (db DB) Names() []string { return schema.SortedNames(db) }

// LookupFold resolves a table name the way the planner does (exact, then
// case-insensitive), keeping execution consistent with compilation.
func (db DB) LookupFold(name string) (*Relation, bool) {
	return schema.LookupFold(db, name)
}

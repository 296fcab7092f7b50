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
// to its table) while queries are in flight, or registering one relation
// in two catalogs at once, is the caller's race to avoid.
type Catalog struct {
	mu   sync.RWMutex
	rels DB
	obs  CatalogObserver
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
	return &Catalog{rels: DB{}}
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
// The first time a relation is registered, the catalog compacts it into
// the columnar layout (see Compact; an empty relation stays dense). This
// happens under the catalog lock before the relation becomes visible, so
// queries — which snapshot under the same lock — only ever see a settled
// representation. A relation is never compacted again, even after it was
// replaced or dropped and rows were added to it: a query's older snapshot
// may still be scanning it. Registering a relation that ReplaceIf retired
// registers its live replacement.
func (c *Catalog) Register(name string, r *Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r = r.Live()
	if !r.published {
		r.Compact(StoragePolicy{})
		r.published = true
	}
	if k, ok := schema.ResolveFold(c.rels, name); ok && k != name {
		delete(c.rels, k)
		if c.obs != nil {
			c.obs.Dropped(k)
		}
	}
	c.rels[name] = r
	if c.obs != nil {
		c.obs.Registered(name, r)
	}
}

// ReplaceIf atomically replaces the relation registered under name with
// repl, but only when the current entry is still old — the compare-and-
// swap Analyze needs so a columnar rebuild cannot resurrect a table that a
// concurrent Register or Drop changed meanwhile. It reports whether the
// swap happened. On a swap old forwards to repl (see Relation.Live): repl
// is a copy of old's rows, and rows added through a handle on old must
// reach the table, not the retired copy.
func (c *Catalog) ReplaceIf(name string, old, repl *Relation) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := schema.ResolveFold(c.rels, name)
	if !ok || c.rels[k] != old {
		return false
	}
	repl.published = true
	old.successor = repl
	c.rels[k] = repl
	if c.obs != nil {
		c.obs.Registered(k, repl)
	}
	return true
}

// Drop removes a relation, resolving the name the way queries do
// (exact, then case-insensitive); it is a no-op for unknown names.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := schema.ResolveFold(c.rels, name); ok {
		delete(c.rels, k)
		if c.obs != nil {
			c.obs.Dropped(k)
		}
	}
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

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
// The catalog guards the name → relation mapping; each registered
// relation is columnar and append-only, and a snapshot pins a read-only
// view of it (Relation.View). So rows may be appended to a registered
// table while queries run, and one relation may be registered in several
// catalogs: each sees every append, and a snapshot sees the rows
// appended before it was taken.
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
// A dense or empty relation is compacted into the columnar layout first
// (see Compact), under the relation's lock, after its rows' arity is
// checked; a row of the wrong length is reported as an error and nothing
// is registered. A columnar relation is registered as it is.
func (c *Catalog) Register(name string, r *Relation) error {
	if err := r.compact(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
	return nil
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
// query execution: the map is copied, so later Register/Drop calls cannot
// race with the executor, and each table is pinned (Relation.View), so
// later appends cannot either.
func (c *Catalog) Snapshot() DB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(DB, len(c.rels))
	for n, r := range c.rels {
		out[n] = r.View()
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

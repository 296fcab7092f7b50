package stats

import (
	"strings"
	"sync"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/obs"
)

// Provider resolves a table name to its current statistics. It is the
// planner-facing read interface: the cost-based optimizer depends on this,
// not on the Registry, so tests can substitute fixed statistics.
type Provider interface {
	// TableStats returns the statistics for a registered table, or false
	// when the table is unknown (the planner then falls back to defaults).
	TableStats(name string) (*TableStats, bool)
}

// Registry caches per-table statistics for a catalog. Registration (via
// the core.CatalogObserver hooks) only records the relation — collection
// is deferred to the first TableStats call, so registering a large table
// stays O(1) and tables that are never planned cost nothing. Dropping or
// re-registering a table invalidates its entry immediately: once Dropped
// returns, TableStats reports the table unknown.
//
// All methods are safe for concurrent use. Collection reads a pinned view
// of the relation (see Collect), as a query does, so rows may be appended
// to a registered table meanwhile.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry // keyed by lowercased name

	// Observability counters (nil until Instrument; a nil obs.Counter
	// drops updates, so the registry works uninstrumented).
	collections   *obs.Counter // deferred stat collections actually run
	invalidations *obs.Counter // entries discarded by re-register/drop/analyze
}

// entry is one table's cached statistics; stats are computed at most once
// per entry (Analyze swaps in a fresh entry to force recollection).
type entry struct {
	name      string
	rel       *core.Relation
	once      sync.Once
	ts        *TableStats
	collected *obs.Counter // owning registry's collection counter
}

func (e *entry) stats() *TableStats {
	e.once.Do(func() {
		e.ts = Collect(e.name, e.rel)
		e.collected.Add(1)
	})
	return e.ts
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// Instrument registers the registry's counters with reg: how many
// deferred collections actually ran, and how many cached entries were
// invalidated (drop, re-register, or explicit Analyze). Call before
// the registry sees traffic.
func (g *Registry) Instrument(reg *obs.Registry) {
	g.collections = reg.Counter("audb_stats_collections_total",
		"table statistics collections run (deferred, on first planner use)")
	g.invalidations = reg.Counter("audb_stats_invalidations_total",
		"cached table statistics invalidated by drop, re-register, or ANALYZE")
}

// Registered implements core.CatalogObserver: (re-)registering a table
// discards any cached statistics and records the new relation.
func (g *Registry) Registered(name string, r *core.Relation) {
	key := strings.ToLower(name)
	g.mu.Lock()
	if _, existed := g.entries[key]; existed {
		g.invalidations.Add(1)
	}
	g.entries[key] = &entry{name: name, rel: r, collected: g.collections}
	g.mu.Unlock()
}

// Dropped implements core.CatalogObserver: the entry is removed, so stats
// for a dropped table are never served again.
func (g *Registry) Dropped(name string) {
	key := strings.ToLower(name)
	g.mu.Lock()
	if _, existed := g.entries[key]; existed {
		g.invalidations.Add(1)
	}
	delete(g.entries, key)
	g.mu.Unlock()
}

// Prime installs pre-collected statistics for a table, so ingest paths
// that already streamed every row through a Collector (COPY) don't pay a
// second collection pass. Call after the
// relation is registered in the catalog: registration invalidates the
// entry, so the order must be Register, then Prime. The statistics only
// land while the cached entry still records the same relation — if a
// concurrent Register or Drop changed the table between collection and
// Prime, the stale statistics are discarded rather than installed (they
// describe a relation the catalog no longer serves).
func (g *Registry) Prime(name string, rel *core.Relation, ts *TableStats) {
	key := strings.ToLower(name)
	e := &entry{name: name, rel: rel, collected: g.collections}
	e.once.Do(func() { e.ts = ts })
	g.mu.Lock()
	if cur, ok := g.entries[key]; ok && cur.rel == rel {
		g.entries[key] = e
		g.invalidations.Add(1)
	}
	g.mu.Unlock()
}

// TableStats implements Provider, collecting the statistics on first use.
func (g *Registry) TableStats(name string) (*TableStats, bool) {
	g.mu.RLock()
	e := g.entries[strings.ToLower(name)]
	g.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	return e.stats(), true
}

// Analyze forces a fresh collection for the named table (e.g. after rows
// were appended to it) and returns the new statistics; false when
// the table is not registered. Concurrent readers keep the old entry
// until the swap, so a query planning mid-analyze sees a consistent
// (possibly stale) snapshot, never a half-built one.
func (g *Registry) Analyze(name string) (*TableStats, bool) {
	key := strings.ToLower(name)
	g.mu.Lock()
	old := g.entries[key]
	if old == nil {
		g.mu.Unlock()
		return nil, false
	}
	fresh := &entry{name: old.name, rel: old.rel, collected: g.collections}
	g.entries[key] = fresh
	g.invalidations.Add(1)
	g.mu.Unlock()
	return fresh.stats(), true
}

// Len returns the number of tables with (lazily collected) entries.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

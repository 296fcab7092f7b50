// Package audb is an uncertainty-aware database engine: a Go implementation
// of AU-DBs (attribute-annotated uncertain databases) from "Efficient
// Uncertainty Tracking for Complex Queries with Attribute-level Bounds"
// (Feng, Huber, Glavic, Kennedy; SIGMOD 2021).
//
// An AU-DB annotates one selected-guess world of an uncertain database:
// every attribute value carries bounds [lb/sg/ub] on its value across all
// possible worlds, and every tuple carries a multiplicity triple
// (lb, sg, ub) sandwiching its certain and possible multiplicities. Full
// relational algebra with aggregation evaluates directly on this
// representation in PTIME while preserving the bounds: query answers
// under-approximate the certain answers and over-approximate the possible
// answers, with the selected-guess world behaving exactly like a
// conventional database.
//
// Basic usage:
//
//	db := audb.New()
//	t := audb.NewUncertainTable("locales", "locale", "rate", "size")
//	t.AddRow(audb.RangeRow{
//		audb.CertainOf(audb.Str("Los Angeles")),
//		audb.Range(audb.Float(3), audb.Float(3), audb.Float(4)),
//		audb.CertainOf(audb.Str("metro")),
//	}, audb.CertainMult(1))
//	db.Add(t)
//	res, err := db.QueryContext(ctx, `SELECT size, avg(rate) AS rate FROM locales GROUP BY size`)
//
// Uncertain inputs can also be derived from incomplete/probabilistic data
// models (tuple-independent tables, block-independent x-tables, C-tables)
// and from cleaning lenses such as key repair; see FromXTable, FromTITable,
// FromCTable and RepairKey.
//
// Queries go through one context-aware dispatcher, QueryContext, that
// serves all three engines — the native AU-DB executor, the Section 10
// relational-encoding middleware, and selected-guess-world processing —
// selected per query with WithEngine. The native engine evaluates through
// a pipelined physical plan (internal/phys);
// WithExecMode(ExecMaterialized) runs the operator-at-a-time reference
// executor instead, the in-process oracle the pipeline is checked against,
// with bit-identical results. Prepare compiles a query once into a Stmt
// whose Exec skips parse/plan on every execution and is safe for
// concurrent use. Cancelling the context aborts execution promptly with
// ctx.Err(). ExplainAnalyze executes a query with instrumented operators
// and reports per-operator rows/batches/time.
//
// Plans pass a rule-based logical optimizer and, on the native engine, a
// cost-based planning pass: per-table statistics (collected lazily at
// registration, refreshed with Analyze) feed a range-aware cardinality
// estimator that reorders join chains, picks hash build sides and
// pre-sizes the physical operators. The cost pass is skipped for
// compressed executions. Explain and ExplainAnalyze show the
// per-operator row estimates the decisions were based on. Both passes
// are result-exact, so neither is a user option.
//
// Every registered table, COPY-loaded table and decoded wire result is
// stored by columns: a certain, null-free column is one flat value slice,
// any other column keeps its triples. Storage is append-only: rows added
// to a registered table are appended to its columns, and each query
// reads the rows appended before it started.
//
// Performance is tuned per query with functional options (WithWorkers,
// WithJoinCompression, WithAggCompression) or database-wide with
// SetOptions. JoinCompression and AggCompression enable the paper's
// split+compress optimizations (Sections 10.4-10.5), trading bound
// tightness for running time. Workers sets the number of goroutines the
// executor may use for the hot operators (hybrid join, aggregation,
// selection, projection, split): 0 — the default — means one worker per
// CPU, 1 forces the serial reference evaluation. Query results are
// bit-identical for every worker count, so parallelism never affects the
// paper's bound-preservation guarantees.
package audb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/encoding"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/obs"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/phys"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/stats"
	"github.com/audb/audb/internal/translate"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/worlds"
)

// Value is an element of the universal domain (null, bool, int, float,
// string, plus the two infinity sentinels).
type Value = types.Value

// Value constructors.
func Int(i int64) Value     { return types.Int(i) }
func Float(f float64) Value { return types.Float(f) }
func Str(s string) Value    { return types.String(s) }
func Bool(b bool) Value     { return types.Bool(b) }
func Null() Value           { return types.Null() }
func NegInfinity() Value    { return types.NegInf() }
func PosInfinity() Value    { return types.PosInf() }

// RangeValue is a range-annotated value [lb/sg/ub].
type RangeValue = rangeval.V

// Range builds a range-annotated value (bounds are normalized to satisfy
// lb <= sg <= ub).
func Range(lb, sg, ub Value) RangeValue { return rangeval.New(lb, sg, ub) }

// CertainOf wraps a deterministic value as the certain range [v/v/v].
func CertainOf(v Value) RangeValue { return rangeval.Certain(v) }

// FullRange marks a completely unknown value with selected guess sg.
func FullRange(sg Value) RangeValue { return rangeval.Full(sg) }

// Multiplicity is a tuple annotation (lb, sg, ub) in N^AU.
type Multiplicity = core.Mult

// CertainMult annotates a tuple that appears exactly n times in every
// world.
func CertainMult(n int64) Multiplicity { return Multiplicity{Lo: n, SG: n, Hi: n} }

// MaybeMult annotates a tuple present in the selected-guess world but
// possibly absent elsewhere.
func MaybeMult() Multiplicity { return Multiplicity{Lo: 0, SG: 1, Hi: 1} }

// Mult builds an explicit annotation.
func Mult(lb, sg, ub int64) Multiplicity { return Multiplicity{Lo: lb, SG: sg, Hi: ub} }

// Row is a deterministic tuple.
type Row = types.Tuple

// RangeRow is a tuple of range-annotated values.
type RangeRow = rangeval.Tuple

// Table is a deterministic bag relation.
type Table struct {
	Name string
	rel  *bag.Relation
}

// NewTable creates an empty deterministic table.
func NewTable(name string, cols ...string) *Table {
	return &Table{Name: name, rel: bag.New(schema.New(cols...))}
}

// AddRow appends a row with multiplicity 1. It panics when the row's
// length differs from the table's column count.
func (t *Table) AddRow(vals ...Value) *Table {
	checkArity(t.Name, len(vals), t.rel.Schema.Arity())
	t.rel.Add(types.Tuple(vals), 1)
	return t
}

// Rel exposes the underlying relation (advanced use).
func (t *Table) Rel() *bag.Relation { return t.rel }

// UncertainTable is an AU-relation under construction.
type UncertainTable struct {
	Name string
	rel  *core.Relation
}

// NewUncertainTable creates an empty AU-table.
func NewUncertainTable(name string, cols ...string) *UncertainTable {
	return &UncertainTable{Name: name, rel: core.New(schema.New(cols...))}
}

// AddRow appends a range-annotated row. It panics when the row's length
// differs from the table's column count.
func (t *UncertainTable) AddRow(vals RangeRow, m Multiplicity) *UncertainTable {
	checkArity(t.Name, len(vals), t.rel.Schema.Arity())
	t.rel.Add(core.Tuple{Vals: vals, M: m})
	return t
}

// AddCertainRow appends a fully certain row. It panics when the row's
// length differs from the table's column count.
func (t *UncertainTable) AddCertainRow(vals ...Value) *UncertainTable {
	checkArity(t.Name, len(vals), t.rel.Schema.Arity())
	t.rel.Add(core.Tuple{Vals: rangeval.CertainTuple(types.Tuple(vals)), M: core.One})
	return t
}

// checkArity rejects a row of the wrong length before it is stored: every
// query, statistics pass and storage rebuild indexes rows by the schema,
// so a short or long row would corrupt results long after it was added.
func checkArity(table string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("audb: table %q: row has %d values, want %d columns", table, got, want))
	}
}

// Rel exposes the underlying AU-relation (advanced use): once the table
// is added to a database, the one its catalog holds.
func (t *UncertainTable) Rel() *core.Relation { return t.rel }

// Result is an AU-relation produced by a query. Each tuple pairs
// range-annotated values with a multiplicity triple.
type Result = core.Relation

// Options tunes the performance/precision trade-offs of Section 10.4-10.5
// of the paper and executor parallelism; the zero value evaluates the
// exact semantics with one worker goroutine per CPU. Set Workers to 1 for
// the serial reference evaluation (results are identical either way).
type Options = core.Options

// Engine selects which of the three query-processing paths evaluates a
// query. All three implement the same SQL surface; Theorem 8 guarantees
// EngineNative and EngineRewrite produce identical AU-relations, and the
// selected-guess world of either equals the EngineSGW answer.
type Engine int

const (
	// EngineNative is the native bound-preserving AU-DB executor
	// (Sections 7-9 of the paper). The default.
	EngineNative Engine = iota
	// EngineRewrite is the relational-encoding middleware (Section 10):
	// encode, rewrite, run on the deterministic engine, decode.
	EngineRewrite
	// EngineSGW evaluates over the selected-guess world only —
	// conventional selected-guess query processing (SGQP). The result is
	// lifted back to a (fully certain) AU-relation; use Result.SGW to
	// recover the bag relation.
	EngineSGW
)

// String names the engine ("native", "rewrite", "sgw").
func (e Engine) String() string {
	switch e {
	case EngineNative:
		return "native"
	case EngineRewrite:
		return "rewrite"
	case EngineSGW:
		return "sgw"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves an engine name as printed by Engine.String.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "native", "":
		return EngineNative, nil
	case "rewrite":
		return EngineRewrite, nil
	case "sgw":
		return EngineSGW, nil
	}
	return EngineNative, fmt.Errorf("audb: unknown engine %q (want native, rewrite or sgw)", name)
}

// ExecMode selects the native engine's executor. ExecPipelined is the
// executor; ExecMaterialized is the in-process reference it is checked
// against. The choice is not exposed on the wire or in audbsh.
type ExecMode int

const (
	// ExecPipelined evaluates through the streaming physical plan layer
	// (internal/phys): Scan→Select→Project→Limit chains run in fixed-size
	// batches without materializing intermediates, LIMIT keeps O(n) state,
	// ORDER BY + LIMIT fuses into a top-k heap, and pipeline breakers run
	// the reference kernels. The default; results are bit-identical to
	// ExecMaterialized.
	ExecPipelined ExecMode = iota
	// ExecMaterialized evaluates with the operator-at-a-time reference
	// executor (core.Exec), which materializes every intermediate
	// relation — the oracle that tests and the benchmark's answer gate
	// compare the pipelined executor against. It is not instrumented:
	// ExplainAnalyze and Trace reject it.
	ExecMaterialized
)

// String names the mode ("pipelined", "materialized").
func (m ExecMode) String() string {
	if m == ExecMaterialized {
		return "materialized"
	}
	return "pipelined"
}

// queryConfig is the resolved per-query configuration: the database
// defaults overlaid with this query's functional options.
type queryConfig struct {
	engine   Engine
	opts     Options
	execMode ExecMode
}

// QueryOption customizes a single query execution, overriding the
// database's defaults (SetOptions) for that query only.
type QueryOption func(*queryConfig)

// WithEngine routes the query to the given engine.
func WithEngine(e Engine) QueryOption {
	return func(c *queryConfig) { c.engine = e }
}

// WithExecMode selects the executor for this query. The native engine
// runs the pipelined executor by default; WithExecMode(ExecMaterialized)
// runs the operator-at-a-time reference executor instead — an in-process
// oracle for tests and answer verification, with bit-identical results.
// EngineRewrite and EngineSGW run on the deterministic engine and ignore
// it.
func WithExecMode(m ExecMode) QueryOption {
	return func(c *queryConfig) { c.execMode = m }
}

// WithWorkers sets the executor worker-goroutine count for this query:
// 0 means one worker per CPU, 1 forces the serial reference evaluation.
// Like the compression options it tunes the native engine; EngineRewrite
// and EngineSGW run on the (serial, exact) deterministic engine and
// ignore it.
func WithWorkers(n int) QueryOption {
	return func(c *queryConfig) { c.opts.Workers = n }
}

// WithJoinCompression enables the split+Cpr join optimization
// (Section 10.4) with the given compression target; 0 disables it.
// EngineNative only.
func WithJoinCompression(target int) QueryOption {
	return func(c *queryConfig) { c.opts.JoinCompression = target }
}

// WithAggCompression compresses the possible-group side of aggregation
// (Section 10.5) to the given target; 0 disables it. EngineNative only.
func WithAggCompression(target int) QueryOption {
	return func(c *queryConfig) { c.opts.AggCompression = target }
}

// Database is a collection of AU-relations queryable with SQL. All methods
// are safe for concurrent use: registration goes through a mutex-guarded
// catalog, and every query executes over an immutable snapshot of it that
// pins each table's rows, so rows appended to a registered table while a
// query runs reach the next query, not that one.
type Database struct {
	cat *core.Catalog
	// st caches per-table statistics for the cost-based planner. The
	// catalog notifies it of every Register/Drop (collection itself is
	// lazy), so statistics are never served for a dropped table.
	st *stats.Registry
	// met holds the pre-resolved session-layer metric handles (see
	// observe.go); hook is the optional per-query observer installed
	// with SetQueryHook (stores a *func(QueryInfo)).
	met  *dbMetrics
	hook atomic.Value

	mu   sync.RWMutex
	opts Options // database-wide defaults, overridable per query
}

// New creates an empty database.
func New() *Database {
	cat := core.NewCatalog()
	st := stats.NewRegistry()
	cat.SetObserver(st)
	met := newDBMetrics()
	st.Instrument(met.reg)
	return &Database{cat: cat, st: st, met: met}
}

// SetOptions configures the database-wide default execution options.
// Per-query functional options (WithWorkers, WithJoinCompression,
// WithAggCompression) override these for a single execution.
func (d *Database) SetOptions(o Options) {
	d.mu.Lock()
	d.opts = o
	d.mu.Unlock()
}

// defaults snapshots the database-wide options.
func (d *Database) defaults() Options {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.opts
}

// Add registers an uncertain table. It panics when a row's length
// differs from the table's column count.
//
// The table is registered by reference: rows added to it afterwards
// (AddRow, or Add on its relation) reach every later query. A table added
// to two databases is shared by both: each sees every row added through
// it, and dropping it from one leaves the other untouched.
func (d *Database) Add(t *UncertainTable) *Database {
	return d.register(t.Name, t.rel)
}

// AddDeterministic registers a deterministic table (lifted to certain
// annotations). It panics when a row's length differs from the table's
// column count.
func (d *Database) AddDeterministic(t *Table) *Database {
	return d.register(t.Name, core.FromDeterministic(t.rel))
}

// AddRelation registers a pre-built AU-relation under the given name. It
// panics when a row's length differs from the schema's column count.
func (d *Database) AddRelation(name string, rel *core.Relation) *Database {
	return d.register(name, rel)
}

// register registers rel under name, panicking with checkArity's message
// when the catalog rejects a row of the wrong length.
func (d *Database) register(name string, rel *core.Relation) *Database {
	if err := d.cat.Register(name, rel); err != nil {
		panic(fmt.Sprintf("audb: table %q: %v", name, err))
	}
	return d
}

// Drop removes a table; unknown names are a no-op.
func (d *Database) Drop(name string) { d.cat.Drop(name) }

// Tables lists the registered table names in sorted order.
func (d *Database) Tables() []string { return d.cat.Tables() }

// NumTables returns the number of registered tables.
func (d *Database) NumTables() int { return d.cat.Len() }

// Relation returns a registered AU-relation.
func (d *Database) Relation(name string) (*core.Relation, error) {
	r, ok := d.cat.Lookup(name)
	if !ok {
		return nil, schema.UnknownTable("audb", name, d.cat.Tables())
	}
	return r, nil
}

// TableStats is the per-table statistics summary the cost-based planner
// consumes (see internal/stats for the collected measures).
type TableStats = stats.TableStats

// ColStats is one column's statistics summary.
type ColStats = stats.ColStats

// TableStats returns the current statistics for a registered table,
// collecting them on first use. Statistics reflect the rows at collection
// time; use Analyze after appending rows to a registered table.
func (d *Database) TableStats(name string) (*TableStats, error) {
	if ts, ok := d.st.TableStats(name); ok {
		return ts, nil
	}
	return nil, schema.UnknownTable("audb", name, d.cat.Tables())
}

// StoragePolicy is the argument of Relation.Compact. It carries no
// choice: every non-empty registered table is stored columnar.
type StoragePolicy = core.StoragePolicy

// StoragePolicy returns the empty policy, for callers that compact a
// relation themselves with Relation.Compact (the benchmark does).
func (d *Database) StoragePolicy() StoragePolicy { return StoragePolicy{} }

// Analyze recollects the statistics for a registered table immediately
// and returns them. Registration already (lazily) collects statistics, so
// Analyze is only needed after appending rows to a registered table, or
// to pay the collection cost eagerly at load time. It leaves the table's
// storage as it is.
func (d *Database) Analyze(name string) (*TableStats, error) {
	if ts, ok := d.st.Analyze(name); ok {
		return ts, nil
	}
	return nil, schema.UnknownTable("audb", name, d.cat.Tables())
}

// TableLoader streams rows into a new table: the rows accumulate in a
// core.RelationBuilder (so the table materializes directly in the
// columnar layout, with no conversion at Commit) and
// feed a statistics collector in the same pass, so the committed table
// arrives with primed statistics — no separate Analyze, no second scan.
// The server's COPY ingest is built on this. Not safe for concurrent use.
type TableLoader struct {
	db   *Database
	name string
	b    *core.RelationBuilder
	c    *stats.Collector
}

// NewLoader starts a streaming load of a new table.
func (d *Database) NewLoader(name string, cols ...string) *TableLoader {
	sch := schema.New(cols...)
	return &TableLoader{
		db:   d,
		name: name,
		b:    core.NewRelationBuilder(sch, 0),
		c:    stats.NewCollector(name, sch),
	}
}

// Arity returns the loader's column count.
func (l *TableLoader) Arity() int { return l.b.Arity() }

// Len returns the number of rows accepted so far.
func (l *TableLoader) Len() int { return l.b.Len() }

// Grow reserves room for n more rows. A caller that receives its rows in
// batches (COPY does) reserves each batch before adding it, so a table
// that arrives in one batch is stored without spare capacity.
func (l *TableLoader) Grow(n int) { l.b.Grow(n) }

// Add appends one row. Rows with a non-positive upper multiplicity are
// dropped, exactly as registration would. It panics when the row's length
// differs from the column count. The row is copied — callers may reuse
// the backing slice.
func (l *TableLoader) Add(vals RangeRow, m Multiplicity) {
	checkArity(l.name, len(vals), l.b.Arity())
	t := core.Tuple{Vals: vals, M: m}
	if m.Hi > 0 {
		l.c.Add(t)
	}
	l.b.Add(t)
}

// Commit registers the loaded table (replacing any previous table of that
// name) with its statistics primed, and returns the relation. The loader
// must not be used afterwards.
func (l *TableLoader) Commit() *core.Relation {
	rel := l.b.Finish()
	l.db.register(l.name, rel)
	ts := l.c.Finish()
	ts.SetStorage(rel)
	l.db.st.Prime(l.name, rel, ts)
	return rel
}

// Plan compiles a SQL query against this database's catalog.
func (d *Database) Plan(q string) (ra.Node, error) {
	return sql.Compile(q, ra.CatalogMap(d.cat.Schemas()))
}

// RuleApplication records one optimizer rule that changed the plan.
type RuleApplication struct {
	// Rule is the rule name (e.g. "push-selections").
	Rule string
	// Pass is the 1-based fixpoint pass the rule fired in.
	Pass int
	// Plan is the rendered plan after the rule applied.
	Plan string
}

// PlanExplanation is the result of Explain: the compiled plan, the
// optimized plan, and the per-rule trace in between.
type PlanExplanation struct {
	// Query is the SQL text.
	Query string
	// Plan is the rendered plan as compiled by the SQL front end.
	Plan string
	// Optimized is the rendered plan after optimization.
	Optimized string
	// Rules lists the effective rule applications in order.
	Rules []RuleApplication
	// Passes is the number of fixpoint passes the optimizer ran.
	Passes int
	// Stats carries the per-operator execution counters (rows, batches,
	// time) when the explanation was produced by ExplainAnalyze; nil for
	// plain Explain.
	Stats *metrics.ExecStats
}

// String renders the explanation the way audbsh -explain prints it. The
// body rendering is the optimizer trace's own (one format, one place).
func (e *PlanExplanation) String() string {
	tr := opt.Trace{Input: e.Plan, Output: e.Optimized, Passes: e.Passes}
	for _, r := range e.Rules {
		tr.Steps = append(tr.Steps, opt.Step{Rule: r.Rule, Pass: r.Pass, Plan: r.Plan})
	}
	body := tr.String()
	if e.Query != "" {
		body = fmt.Sprintf("query: %s\n%s", e.Query, body)
	}
	if e.Stats != nil {
		body += e.Stats.String()
	}
	return body
}

// Explain compiles a SQL query and runs the logical optimizer and the
// cost-based planning pass with tracing, without executing anything. The
// same final plan is what QueryContext executes. When the cost pass runs
// (the native engine without compression), the optimized plan is
// rendered with each operator's estimated row count, and join
// reorderings appear in the rule trace; options (WithEngine, the
// compression knobs) select the same planning path they select for
// execution.
func (d *Database) Explain(q string, opts ...QueryOption) (*PlanExplanation, error) {
	snap := d.cat.Snapshot()
	cat := ra.CatalogMap(snap.Schemas())
	plan, err := sql.Compile(q, cat)
	if err != nil {
		return nil, err
	}
	exp, _, _, err := d.explainPlan(q, plan, cat, d.resolve(opts))
	return exp, err
}

// ExplainAnalyze is the ANALYZE mode of Explain: it compiles and
// optimizes the query like Explain, then actually executes it
// through the instrumented physical plan layer and attaches per-operator
// rows/batches/time counters (Stats) to the explanation. Options compose
// as for QueryContext — WithWorkers and the compression knobs shape the
// physical plan being measured. Only the pipelined native executor is
// instrumented; WithEngine selecting another engine or
// WithExecMode(ExecMaterialized) is an error. The query's result is
// discarded; cancelling ctx aborts the execution.
func (d *Database) ExplainAnalyze(ctx context.Context, q string, opts ...QueryOption) (*PlanExplanation, error) {
	snap := d.cat.Snapshot()
	cat := ra.CatalogMap(snap.Schemas())
	plan, err := sql.Compile(q, cat)
	if err != nil {
		return nil, err
	}
	cfg := d.resolve(opts)
	if err := cfg.instrumented("ExplainAnalyze"); err != nil {
		return nil, err
	}
	exp, execPlan, ann, err := d.explainPlan(q, plan, cat, cfg)
	if err != nil {
		return nil, err
	}
	pp, err := phys.Compile(execPlan, snap, phys.Options{Exec: cfg.opts, Analyze: true, Est: ann})
	if err != nil {
		return nil, err
	}
	if _, err := pp.Execute(ctx); err != nil {
		return nil, err
	}
	exp.Stats = pp.Stats()
	return exp, nil
}

// ExplainPlan is Explain for a pre-compiled plan.
func (d *Database) ExplainPlan(plan ra.Node, opts ...QueryOption) (*PlanExplanation, error) {
	exp, _, _, err := d.explainPlan("", plan, ra.CatalogMap(d.cat.Schemas()), d.resolve(opts))
	return exp, err
}

// resolve overlays the per-query options onto the database defaults.
func (d *Database) resolve(opts []QueryOption) queryConfig {
	cfg := queryConfig{engine: EngineNative, opts: d.defaults()}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// instrumented rejects configurations the physical plan layer cannot
// instrument for ExplainAnalyze and Trace: another engine, or the
// operator-at-a-time reference executor.
func (c queryConfig) instrumented(op string) error {
	if c.engine != EngineNative {
		return fmt.Errorf("audb: %s instruments the native engine only (got engine %v)", op, c.engine)
	}
	if c.execMode == ExecMaterialized {
		return fmt.Errorf("audb: %s instruments the pipelined executor only (got exec mode %v)", op, c.execMode)
	}
	return nil
}

// costEnabled reports whether the cost-based planning pass runs for this
// configuration: it is skipped for compressed executions (the reorder
// rule's restoring projection is a merge point, observable under
// split+compress — the same gate the pipelined executor applies to
// streaming projections). Only the native engine plans by cost.
//
// The pass is result-exact, with one presentation caveat: like any plan
// change in a conventional DBMS, reordering may change the order in which
// ORDER BY rows with EQUAL sort keys appear (ties keep arrival order per
// core.OrderCompare; the row multiset, ranges and multiplicities are
// identical). LIMIT results are protected outright: the planner never
// reorders or flips build sides below a Limit, whose first-N truncation
// observes arrival order.
func (c queryConfig) costEnabled() bool {
	return c.engine == EngineNative && !c.opts.Compressed()
}

// explainPlan runs the optimizer (with tracing) and, for the native
// engine, the cost-based planning pass, assembling the explanation. It
// also returns the final plan and its cost annotations for callers that
// go on to execute it (ExplainAnalyze).
func (d *Database) explainPlan(q string, plan ra.Node, cat ra.CatalogMap, cfg queryConfig) (*PlanExplanation, ra.Node, *opt.Annotations, error) {
	cur, trace, err := opt.OptimizeTrace(plan, cat)
	if err != nil {
		return nil, nil, nil, err
	}
	exp := &PlanExplanation{Query: q, Plan: trace.Input, Optimized: trace.Output, Passes: trace.Passes}
	for _, s := range trace.Steps {
		exp.Rules = append(exp.Rules, RuleApplication{Rule: s.Rule, Pass: s.Pass, Plan: s.Plan})
	}
	var ann *opt.Annotations
	if cfg.costEnabled() {
		var steps []opt.Step
		cur, ann, steps, err = opt.CostOptimizeTrace(cur, cat, d.st)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(steps) > 0 {
			exp.Passes++
		}
		for _, s := range steps {
			exp.Rules = append(exp.Rules, RuleApplication{Rule: s.Rule, Pass: exp.Passes, Plan: s.Plan})
		}
		// The final plan renders with per-operator row estimates — the
		// EXPLAIN surface of the cost model.
		exp.Optimized = ann.Render(cur)
	}
	return exp, cur, ann, nil
}

// QueryContext compiles and evaluates a SQL query. The engine and
// execution options default to EngineNative with the database's SetOptions
// values; functional options override both per query. Cancelling ctx
// aborts the execution promptly and returns ctx.Err().
//
// Compilation and execution see one catalog snapshot, so a concurrent
// table replacement between planning and execution cannot desynchronize
// the plan from the data it runs over.
func (d *Database) QueryContext(ctx context.Context, q string, opts ...QueryOption) (*Result, error) {
	snap := d.cat.Snapshot()
	plan, err := sql.Compile(q, ra.CatalogMap(snap.Schemas()))
	if err != nil {
		return nil, err
	}
	return d.dispatch(ctx, snap, plan, nil, q, opts)
}

// ExecPlan evaluates a pre-compiled plan with the same dispatch semantics
// as QueryContext. The plan must have been compiled against this
// database's catalog (Plan); if a referenced table's schema changed since,
// re-plan first.
func (d *Database) ExecPlan(ctx context.Context, plan ra.Node, opts ...QueryOption) (*Result, error) {
	return d.dispatch(ctx, d.cat.Snapshot(), plan, nil, "", opts)
}

// dispatch is the single execution path behind QueryContext, ExecPlan and
// Stmt.Exec: resolve options, optimize the plan, and route to an engine,
// executing over the given catalog snapshot.
// q is the statement text when the caller has it ("" for pre-compiled
// plans) — it feeds the query hook, never execution. The wrapper
// records the session metrics and, when a hook is installed, assembles
// the QueryInfo; both are allocation-free when idle.
func (d *Database) dispatch(ctx context.Context, snap core.DB, plan ra.Node, st *Stmt, q string, opts []QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ra.IsNil(plan) {
		return nil, fmt.Errorf("audb: nil plan")
	}
	cfg := d.resolve(opts)
	start := time.Now()
	res, estRows, hasEst, err := d.run(ctx, snap, plan, st, cfg)
	dur := time.Since(start)
	d.met.record(cfg, dur, err)
	if hook := d.queryHook(); hook != nil {
		text := q
		if text == "" && st != nil {
			text = st.text
		}
		info := QueryInfo{
			Query:       text,
			Fingerprint: obs.Fingerprint(text),
			Engine:      cfg.engine.String(),
			Duration:    dur,
			EstRows:     estRows,
			HasEst:      hasEst,
			ErrCode:     errCodeOf(err),
		}
		if cfg.engine == EngineNative {
			info.ExecMode = cfg.execMode.String()
		}
		if res != nil {
			info.Rows = int64(res.Len())
		}
		hook(info)
	}
	return res, err
}

// run is dispatch's engine-routing body. For the native engine it also
// reports the cost model's root-cardinality estimate so the query hook
// can surface est-vs-actual drift.
func (d *Database) run(ctx context.Context, snap core.DB, plan ra.Node, st *Stmt, cfg queryConfig) (res *Result, estRows int64, hasEst bool, err error) {
	if st != nil {
		plan, err = st.optimizedPlan(snap)
	} else {
		plan, err = opt.OptimizeObserved(plan, ra.CatalogMap(snap.Schemas()), d.met.onRule)
	}
	if err != nil {
		return nil, 0, false, err
	}
	switch cfg.engine {
	case EngineNative:
		// Cost-based planning runs per execution (it is a cheap tree
		// pass) so prepared statements always plan against the current
		// statistics; only the rule-based optimization is cached.
		var est *opt.Annotations
		if cfg.costEnabled() {
			plan, est, err = opt.CostOptimize(plan, ra.CatalogMap(snap.Schemas()), d.st)
			if err != nil {
				return nil, 0, false, err
			}
		}
		estRows, hasEst = est.EstRows(plan)
		if cfg.execMode == ExecMaterialized {
			res, err = core.Exec(ctx, plan, snap, cfg.opts)
			return res, estRows, hasEst, err
		}
		res, err = phys.Exec(ctx, plan, snap, phys.Options{Exec: cfg.opts, Est: est})
		return res, estRows, hasEst, err
	case EngineRewrite:
		// Encode only the tables the plan scans: the middleware pays an
		// O(table size) encoding cost per execution, and unrelated
		// catalog entries must not be part of it.
		db, err := scanSubset(plan, snap)
		if err != nil {
			return nil, 0, false, err
		}
		if st != nil {
			rp, rs, err := st.rewritten(db, plan)
			if err != nil {
				return nil, 0, false, err
			}
			res, err = encoding.ExecRewritten(ctx, rp, rs, db)
			return res, 0, false, err
		}
		res, err = encoding.Exec(ctx, plan, db)
		return res, 0, false, err
	case EngineSGW:
		db, err := scanSubset(plan, snap)
		if err != nil {
			return nil, 0, false, err
		}
		sgw, err := db.SGWContext(ctx)
		if err != nil {
			return nil, 0, false, err
		}
		det, err := bag.Exec(ctx, plan, sgw)
		if err != nil {
			return nil, 0, false, err
		}
		return core.FromDeterministic(det), 0, false, nil
	}
	return nil, 0, false, fmt.Errorf("audb: unknown engine %v", cfg.engine)
}

// scanSubset restricts a catalog snapshot to the tables the plan scans,
// erroring up front — with the whole catalog enumerated, sorted — when
// the plan references a table the snapshot does not have, so no engine
// pays an O(database) encode/extraction just to fail the same way.
func scanSubset(plan ra.Node, snap core.DB) (core.DB, error) {
	names := map[string]bool{}
	var walk func(n ra.Node)
	walk = func(n ra.Node) {
		if ra.IsNil(n) {
			return
		}
		if sc, ok := n.(*ra.Scan); ok {
			names[sc.Table] = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
	out := make(core.DB, len(names))
	for n := range names {
		// Key by the resolved catalog name so case-variant spellings of
		// one table collapse to a single entry (encoded once).
		k, ok := schema.ResolveFold(snap, n)
		if !ok {
			return nil, schema.UnknownTable("audb", n, snap.Names())
		}
		out[k] = snap[k]
	}
	return out, nil
}

// Stmt is a prepared statement: the query is parsed and planned once at
// Prepare time (and, for EngineRewrite, rewritten once on first use), so
// repeated executions skip the front end entirely. A Stmt is immutable
// after preparation and safe for concurrent Exec from many goroutines;
// results are bit-identical to unprepared execution.
//
// The plan is bound to the table schemas at Prepare time. Registering new
// tables afterwards is fine; changing the schema of a table the statement
// references requires re-preparing.
type Stmt struct {
	db   *Database
	text string
	plan ra.Node

	optMu   sync.Mutex
	optPlan ra.Node

	rewriteMu sync.Mutex
	rewrite   *rewriteEntry
}

// rewriteEntry is one cached Section 10 rewrite.
type rewriteEntry struct {
	plan ra.Node
	sch  schema.Schema
}

// Prepare compiles a SQL query into a reusable statement.
func (d *Database) Prepare(q string) (*Stmt, error) {
	plan, err := d.Plan(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: d, text: q, plan: plan}, nil
}

// Text returns the SQL the statement was prepared from.
func (s *Stmt) Text() string { return s.text }

// Plan returns the cached compiled plan (advanced use; treat as
// read-only).
func (s *Stmt) Plan() ra.Node { return s.plan }

// Exec evaluates the prepared statement with the same dispatch semantics
// as QueryContext. Safe for concurrent use.
func (s *Stmt) Exec(ctx context.Context, opts ...QueryOption) (*Result, error) {
	return s.db.dispatch(ctx, s.db.cat.Snapshot(), s.plan, s, s.text, opts)
}

// optimizedPlan caches the logically optimized plan. Optimization
// depends only on the referenced schemas (which the statement is bound
// to), so one optimization serves every execution; like the rewrite
// cache, failures are not cached and are retried on the next execution.
func (s *Stmt) optimizedPlan(snap core.DB) (ra.Node, error) {
	s.optMu.Lock()
	defer s.optMu.Unlock()
	if s.optPlan != nil {
		s.db.met.stmtHits.Add(1)
		return s.optPlan, nil
	}
	s.db.met.stmtMiss.Add(1)
	plan, err := opt.OptimizeObserved(s.plan, ra.CatalogMap(snap.Schemas()), s.db.met.onRule)
	if err != nil {
		return nil, err
	}
	s.optPlan = plan
	return plan, nil
}

// rewritten caches the Section 10 rewrite of the optimized plan. The
// rewrite depends only on the referenced schemas, so one successful
// rewrite serves every execution. Failures are not cached: a rewrite that
// fails against the current catalog (e.g. a referenced table was dropped)
// is retried on the next execution, keeping Stmt.Exec equivalent to
// unprepared execution over time.
func (s *Stmt) rewritten(snap core.DB, plan ra.Node) (ra.Node, schema.Schema, error) {
	s.rewriteMu.Lock()
	defer s.rewriteMu.Unlock()
	if e := s.rewrite; e != nil {
		return e.plan, e.sch, nil
	}
	rp, sch, err := encoding.Rewrite(plan, ra.CatalogMap(snap.Schemas()))
	if err != nil {
		return nil, schema.Schema{}, err
	}
	s.rewrite = &rewriteEntry{plan: rp, sch: sch}
	return rp, sch, nil
}

// ---------------------------------------------------------------- inputs --

// XTable re-exports the block-independent x-relation model.
type XTable = worlds.XRelation

// XBlock is one block of alternatives.
type XBlock = worlds.XTuple

// NewXTable creates an empty x-relation.
func NewXTable(cols ...string) *XTable { return worlds.NewXRelation(schema.New(cols...)) }

// FromXTable translates an x-table into a bound-preserving AU-relation
// (Section 11.2 of the paper).
func FromXTable(x *XTable) *core.Relation { return translate.XDB(x) }

// FromTITable translates a tuple-independent table (one alternative per
// block) into an AU-relation (Section 11.1).
func FromTITable(x *XTable) (*core.Relation, error) { return translate.TIDB(x) }

// CTable re-exports the C-table model.
type CTable = worlds.CTable

// FromCTable translates a C-table into an AU-relation, deriving attribute
// and multiplicity bounds from the variable domains (Section 11.3). limit
// caps the number of enumerated valuations.
func FromCTable(ct *CTable, limit int) (*core.Relation, error) {
	return translate.CTable(ct, limit)
}

// RepairKey is the key-repair lens (Section 11.4): it groups a
// deterministic table by the named key columns and exposes the repair
// uncertainty as an AU-relation.
func RepairKey(t *Table, keyCols ...string) (*core.Relation, error) {
	idx := make([]int, len(keyCols))
	for i, c := range keyCols {
		j, err := t.rel.Schema.MustIndexOf(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	return translate.KeyRepair(t.rel, idx), nil
}

// MakeUncertain builds a range value from explicit bounds, mirroring the
// MakeUncertain construct of Section 11.4.
func MakeUncertain(lb, sg, ub Value) RangeValue { return translate.MakeUncertain(lb, sg, ub) }

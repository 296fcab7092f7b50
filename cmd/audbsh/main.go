// Command audbsh runs SQL over CSV files with the AU-DB uncertainty
// semantics. Plain CSV files become certain tables; the extended range
// syntax ("lb|sg|ub" cells, "?" for unknown, _mult_lb/_mult_ub columns)
// carries uncertainty; -repair-key exposes key-violation repair
// uncertainty for a plain CSV.
//
// Queries run through the session API (audb.QueryContext) with an
// interrupt-aware context: Ctrl-C cancels the running query instead of
// killing the process mid-computation. The engine is selected with
// -engine (native, rewrite, sgw).
//
// Plans are optimized by the rule-based logical optimizer. On the native
// engine, the cost-based planner then uses per-table statistics to
// reorder join chains, pick hash build sides and pre-size operators
// (skipped under -join-ct/-agg-ct compression). -explain (or prefixing
// the query with `\explain `) prints the compiled plan, the per-rule
// rewrite trace and the optimized plan — with per-operator row estimates
// when the cost planner ran — instead of executing.
//
// -analyze (or prefixing the query with `\analyze `) executes the query
// and prints per-operator est/rows/batches/time counters (EXPLAIN
// ANALYZE) instead of the result.
//
// Statistics are inspected with `\stats <table>` (the cached statistics
// the planner sees, collected on first use) and refreshed with
// `\analyze <table>` (recollects and prints them — `\analyze` followed
// by a single table name analyzes the table; followed by a query it
// analyzes the execution).
//
// `\trace <query>` executes with the full lifecycle instrumented and
// prints the span tree: parse, per-rule optimize, cost-based planning,
// physical lowering, and per-operator execution spans carrying the same
// counters as \analyze. Remotely it adds the server's admission-wait
// and wire-encode spans. `\server` (remote only) prints the server's
// metrics snapshot and its recent sampled request traces.
//
// With -connect host:port the query runs against a live audbd server
// instead of in-process: any -table/-au-table CSVs are bulk-uploaded
// over the wire first, and \explain, \analyze, \stats, \trace and
// \server print the server-rendered text. Ctrl-C sends a Cancel frame,
// aborting the server-side query.
//
// Usage:
//
//	audbsh -table locales=locales.csv "SELECT size, avg(rate) FROM locales GROUP BY size"
//	audbsh -connect localhost:7687 "SELECT a, b FROM r WHERE a < 3"
//	audbsh -au-table r=ranges.csv -engine sgw "SELECT * FROM r"
//	audbsh -table cat=catalog.csv -repair-key cat=id "SELECT category, sum(price) FROM cat GROUP BY category"
//	audbsh -table e=emp.csv -table d=dept.csv "\explain SELECT e.name FROM e, d WHERE e.dept = d.name"
//	audbsh -table e=emp.csv "\analyze SELECT name FROM e WHERE salary > 70 ORDER BY salary LIMIT 5"
//	audbsh -table e=emp.csv "\stats e"
//	audbsh -table e=emp.csv "\analyze e"
//	audbsh -table e=emp.csv "\trace SELECT name FROM e WHERE salary > 70"
//	audbsh -connect localhost:7687 "\server"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/csvio"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/translate"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var (
		tables   listFlag
		auTables listFlag
		repairs  listFlag
		engine   = flag.String("engine", "", "query engine: native (default), rewrite (Section 10 middleware) or sgw (selected-guess world)")
		joinCT   = flag.Int("join-ct", 0, "join compression target (0 = exact)")
		aggCT    = flag.Int("agg-ct", 0, "aggregation compression target (0 = exact)")
		workers  = flag.Int("workers", 0, "executor worker goroutines (0 = one per CPU, 1 = serial)")
		showPlan = flag.Bool("plan", false, "print the loaded tables and the compiled plan")
		explain  = flag.Bool("explain", false, "print the compiled plan, optimizer trace and optimized plan instead of executing")
		analyze  = flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute and print per-operator est/rows/batches/time instead of the result")
		connect  = flag.String("connect", "", "host:port of an audbd server: run remotely instead of in-process (CSV tables are uploaded first)")
	)
	flag.Var(&tables, "table", "name=file.csv: load a certain CSV table (repeatable)")
	flag.Var(&auTables, "au-table", "name=file.csv: load an uncertain CSV table with range cells (repeatable)")
	flag.Var(&repairs, "repair-key", "name=keycol: apply the key-repair lens to a loaded table (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "audbsh: exactly one SQL query argument expected")
		flag.Usage()
		os.Exit(2)
	}
	query := flag.Arg(0)
	// `\explain SELECT ...` and `\analyze SELECT ...` are the query-prefix
	// forms of -explain and -analyze; `\analyze <table>` (a single table
	// name) recollects that table's statistics and `\stats <table>` prints
	// the cached ones.
	statsTable, analyzeTable := "", ""
	trace, serverStats := false, false
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), `\explain `); ok {
		*explain = true
		query = rest
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), `\trace `); ok {
		trace = true
		query = rest
	}
	if strings.TrimSpace(query) == `\server` {
		serverStats = true
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), `\stats `); ok {
		statsTable = strings.TrimSpace(rest)
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), `\analyze `); ok {
		if fields := strings.Fields(rest); len(fields) == 1 {
			analyzeTable = fields[0]
		} else {
			*analyze = true
			query = rest
		}
	}

	eng, err := audb.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	if *connect != "" {
		if *showPlan {
			fatal(fmt.Errorf("audbsh: -plan is not supported with -connect (use \\explain)"))
		}
		err := runRemote(remoteOpts{
			addr:         *connect,
			query:        query,
			explain:      *explain,
			analyze:      *analyze,
			trace:        trace,
			serverStats:  serverStats,
			statsTable:   statsTable,
			analyzeTable: analyzeTable,
			eng:          eng,
			workers:      *workers,
			joinCT:       *joinCT,
			aggCT:        *aggCT,
			tables:       tables,
			auTables:     auTables,
			repairs:      repairs,
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "audbsh: interrupted")
				os.Exit(130)
			}
			fatal(err)
		}
		return
	}

	db := audb.New()
	plain := map[string]*bag.Relation{}
	for _, spec := range tables {
		name, file, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		rel, err := loadCSV(file, false)
		if err != nil {
			fatal(err)
		}
		plain[name] = rel.det
		db.AddRelation(name, core.FromDeterministic(rel.det))
	}
	for _, spec := range auTables {
		name, file, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		rel, err := loadCSV(file, true)
		if err != nil {
			fatal(err)
		}
		db.AddRelation(name, rel.au)
	}
	for _, spec := range repairs {
		name, keyCol, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		rel, ok := plain[name]
		if !ok {
			fatal(fmt.Errorf("audbsh: -repair-key %s: table not loaded with -table", name))
		}
		idx, err := rel.Schema.MustIndexOf(keyCol)
		if err != nil {
			fatal(err)
		}
		db.AddRelation(name, translate.KeyRepair(rel, []int{idx}))
	}
	if db.NumTables() == 0 {
		fatal(fmt.Errorf("audbsh: no tables loaded (use -table / -au-table)"))
	}

	if serverStats {
		fatal(fmt.Errorf(`audbsh: \server inspects a remote audbd (use -connect)`))
	}
	// Statistics commands print and exit before any query planning.
	if statsTable != "" {
		ts, err := db.TableStats(statsTable)
		if err != nil {
			fatal(err)
		}
		fmt.Print(ts)
		return
	}
	if analyzeTable != "" {
		ts, err := db.Analyze(analyzeTable)
		if err != nil {
			fatal(err)
		}
		fmt.Print(ts)
		return
	}

	qopts := []audb.QueryOption{
		audb.WithEngine(eng),
		audb.WithWorkers(*workers),
		audb.WithJoinCompression(*joinCT),
		audb.WithAggCompression(*aggCT),
	}
	if trace {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		qt, err := db.Trace(ctx, query, qopts...)
		stop()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "audbsh: interrupted")
				os.Exit(130)
			}
			fatal(err)
		}
		fmt.Print(qt)
		return
	}

	plan, err := db.Plan(query)
	if err != nil {
		fatal(err)
	}
	if *showPlan {
		// Tables print in sorted order — deterministic diagnostics.
		fmt.Fprintf(os.Stderr, "tables: %s\n", strings.Join(db.Tables(), ", "))
		fmt.Fprint(os.Stderr, ra.Render(plan))
	}
	if *explain {
		exp, err := db.Explain(query, qopts...)
		if err != nil {
			fatal(err)
		}
		fmt.Print(exp)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *analyze {
		exp, err := db.ExplainAnalyze(ctx, query, qopts...)
		stop()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "audbsh: interrupted")
				os.Exit(130)
			}
			fatal(err)
		}
		// \analyze prints the execution counters only; -explain shows the
		// optimizer trace.
		fmt.Print(exp.Stats)
		return
	}

	res, err := db.ExecPlan(ctx, plan, qopts...)
	// Restore default SIGINT handling once execution is done, so Ctrl-C
	// still kills the process while the result is being sorted/printed.
	stop()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "audbsh: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}
	if eng == audb.EngineSGW {
		fmt.Print(res.SGW().Sort())
		return
	}
	fmt.Print(res.Sort())
}

type loaded struct {
	det *bag.Relation
	au  *core.Relation
}

func loadCSV(file string, uncertain bool) (*loaded, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if uncertain {
		rel, err := csvio.ReadAU(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		return &loaded{au: rel}, nil
	}
	rel, err := csvio.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &loaded{det: rel}, nil
}

func splitSpec(spec string) (string, string, error) {
	parts := strings.SplitN(spec, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("audbsh: bad spec %q (want name=value)", spec)
	}
	return parts[0], parts[1], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"github.com/audb/audb"
	"github.com/audb/audb/client"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/translate"
)

// remoteOpts carries the resolved flags into the -connect path.
type remoteOpts struct {
	addr  string
	query string

	explain, analyze         bool
	trace, serverStats       bool
	statsTable, analyzeTable string

	eng     audb.Engine
	workers int
	joinCT  int
	aggCT   int

	tables, auTables, repairs []string
}

// runRemote executes the query against a live audbd server instead of
// an in-process database. Any -table/-au-table CSVs are bulk-uploaded
// first (with -repair-key lenses applied locally before upload), then
// the query — or the \explain / \analyze / \stats command — runs
// server-side and prints the same output the local mode would.
func runRemote(o remoteOpts) error {
	c, err := client.DialConfig(o.addr, client.Config{Name: "audbsh"})
	if err != nil {
		return err
	}
	defer c.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Load and upload tables. Plain tables lift to certain AU-relations;
	// repair-key lenses transform locally so the server only ever speaks
	// AU-relations.
	repairKey := map[string]string{}
	for _, spec := range o.repairs {
		name, keyCol, err := splitSpec(spec)
		if err != nil {
			return err
		}
		repairKey[name] = keyCol
	}
	for _, spec := range o.tables {
		name, file, err := splitSpec(spec)
		if err != nil {
			return err
		}
		rel, err := loadCSV(file, false)
		if err != nil {
			return err
		}
		au := core.FromDeterministic(rel.det)
		if keyCol, ok := repairKey[name]; ok {
			idx, err := rel.det.Schema.MustIndexOf(keyCol)
			if err != nil {
				return err
			}
			au = translate.KeyRepair(rel.det, []int{idx})
			delete(repairKey, name)
		}
		if err := upload(ctx, c, name, au); err != nil {
			return err
		}
	}
	for _, spec := range o.auTables {
		name, file, err := splitSpec(spec)
		if err != nil {
			return err
		}
		rel, err := loadCSV(file, true)
		if err != nil {
			return err
		}
		if err := upload(ctx, c, name, rel.au); err != nil {
			return err
		}
	}
	for name := range repairKey {
		return fmt.Errorf("audbsh: -repair-key %s: table not loaded with -table", name)
	}

	// \server prints the server's metrics snapshot and recent traces.
	if o.serverStats {
		text, err := c.ServerStats(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	// Statistics commands print and exit, as in local mode.
	if o.statsTable != "" {
		text, err := c.TableStats(ctx, o.statsTable)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	if o.analyzeTable != "" {
		text, err := c.Analyze(ctx, o.analyzeTable)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}

	qopts := []client.QueryOption{
		client.WithEngine(o.eng),
		client.WithWorkers(o.workers),
		client.WithJoinCompression(o.joinCT),
		client.WithAggCompression(o.aggCT),
	}
	if o.explain {
		text, err := c.Explain(ctx, o.query, qopts...)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	if o.analyze {
		text, err := c.ExplainAnalyze(ctx, o.query, qopts...)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	if o.trace {
		text, err := c.Trace(ctx, o.query, qopts...)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	res, err := c.Query(ctx, o.query, qopts...)
	if err != nil {
		return err
	}
	if o.eng == audb.EngineSGW {
		fmt.Print(res.SGW().Sort())
		return nil
	}
	fmt.Print(res.Sort())
	return nil
}

// upload streams one AU-relation into the server as a new table.
func upload(ctx context.Context, c *client.Conn, name string, rel *core.Relation) error {
	b := c.Bulk(name, rel.Schema.Attrs...)
	// EachTuple handles both storage representations. Bulk.Add buffers the
	// row until the next chunk flush, so the scratch tuple a sparse
	// relation reuses between callbacks must be copied before handing over.
	if err := rel.EachTuple(func(t core.Tuple) error {
		vals := t.Vals
		if rel.IsSparse() {
			vals = append(rangeval.Tuple(nil), vals...)
		}
		b.Add(vals, t.M)
		return nil
	}); err != nil {
		return fmt.Errorf("audbsh: upload %s: %w", name, err)
	}
	if _, err := b.Close(ctx); err != nil {
		return fmt.Errorf("audbsh: upload %s: %w", name, err)
	}
	return nil
}

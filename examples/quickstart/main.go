// Quickstart: the running example of the paper (Figure 1). Alice tracks
// COVID infection rates extracted from unreliable web sources: some rates
// are ambiguous intervals, some locale sizes conflict between sources, one
// size is entirely unknown. A conventional database forces her to pick one
// reading per cell and silently report misleading aggregates; an AU-DB
// keeps attribute-level bounds through the same SQL query.
package main

import (
	"context"
	"fmt"

	"github.com/audb/audb"
)

func main() {
	// Build the locales table of Figure 1c: every uncertain cell carries
	// [lower bound / selected guess / upper bound].
	locales := audb.NewUncertainTable("locales", "locale", "rate", "size")

	locales.AddRow(audb.RangeRow{
		audb.CertainOf(audb.Str("Los Angeles")),
		audb.Range(audb.Float(3), audb.Float(3), audb.Float(4)), // conflicting sources: 3%..4%
		audb.CertainOf(audb.Str("metro")),
	}, audb.CertainMult(1))

	locales.AddRow(audb.RangeRow{
		audb.CertainOf(audb.Str("Austin")),
		audb.CertainOf(audb.Float(18)),
		audb.Range(audb.Str("city"), audb.Str("city"), audb.Str("metro")), // city or metro?
	}, audb.CertainMult(1))

	locales.AddCertainRow(audb.Str("Houston"), audb.Float(14), audb.Str("metro"))

	locales.AddRow(audb.RangeRow{
		audb.CertainOf(audb.Str("Berlin")),
		audb.Range(audb.Float(1), audb.Float(3), audb.Float(3)),
		audb.Range(audb.Str("city"), audb.Str("town"), audb.Str("town")),
	}, audb.CertainMult(1))

	locales.AddRow(audb.RangeRow{
		audb.CertainOf(audb.Str("Sacramento")),
		audb.CertainOf(audb.Float(1)),
		// The size is NULL in the source: completely unknown.
		audb.Range(audb.Str("city"), audb.Str("town"), audb.Str("village")),
	}, audb.CertainMult(1))

	locales.AddRow(audb.RangeRow{
		audb.CertainOf(audb.Str("Springfield")),
		audb.Range(audb.Float(0), audb.Float(5), audb.Float(100)), // null rate: anything
		audb.CertainOf(audb.Str("town")),
	}, audb.CertainMult(1))

	db := audb.New()
	db.Add(locales)

	// Alice's analysis, unchanged SQL.
	const q = `SELECT size, avg(rate) AS rate FROM locales GROUP BY size ORDER BY size`
	ctx := context.Background()

	// 1. Conventional selected-guess query processing: one number per
	// group, all uncertainty silently discarded.
	sgw, err := db.QueryContext(ctx, q, audb.WithEngine(audb.EngineSGW))
	if err != nil {
		panic(err)
	}
	fmt.Println("Selected-guess world only (what a normal DB reports):")
	fmt.Println(sgw.SGW())

	// 2. The same query over the AU-DB: every group keeps bounds on the
	// aggregate and a multiplicity triple saying whether the group
	// certainly exists.
	res, err := db.QueryContext(ctx, q)
	if err != nil {
		panic(err)
	}
	fmt.Println("AU-DB result (bounds [lb/guess/ub], annotation (lb,sg,ub)):")
	fmt.Println(res.Sort())

	fmt.Println("Reading the first row: the metro group certainly exists;")
	fmt.Println("its average rate is guaranteed to lie within the printed bounds")
	fmt.Println("in every possible world, with the guess matching the SGW value.")
}

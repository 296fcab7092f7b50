package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/client"
	"github.com/audb/audb/internal/server"
	"github.com/audb/audb/internal/testutil"
)

// startServer runs a server on a loopback port and shuts it down at
// test cleanup (generous drain so healthy tests never hit the force
// path by accident).
func startServer(t testing.TB, db *audb.Database, cfg server.Config) (string, *server.Server) {
	t.Helper()
	srv := server.New(db, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != nil && !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return lis.Addr().String(), srv
}

// randomDB mirrors the root package's property-test database: two
// uncertain tables with mixed certain/range attributes and optional or
// duplicated tuples.
func randomDB(rng *rand.Rand, rows int) *audb.Database {
	mk := func(name string, cols ...string) *audb.UncertainTable {
		tbl := audb.NewUncertainTable(name, cols...)
		for i := 0; i < rows; i++ {
			row := make(audb.RangeRow, len(cols))
			for c := range cols {
				sg := int64(rng.Intn(6))
				switch rng.Intn(3) {
				case 0:
					row[c] = audb.CertainOf(audb.Int(sg))
				case 1:
					row[c] = audb.Range(audb.Int(sg-int64(rng.Intn(2))), audb.Int(sg), audb.Int(sg+int64(rng.Intn(3))))
				default:
					row[c] = audb.Range(audb.Int(0), audb.Int(sg), audb.Int(5))
				}
			}
			m := audb.CertainMult(int64(1 + rng.Intn(2)))
			if rng.Intn(4) == 0 {
				m = audb.Mult(0, 1, 1+int64(rng.Intn(2)))
			}
			tbl.AddRow(row, m)
		}
		return tbl
	}
	db := audb.New()
	db.Add(mk("r", "a", "b"))
	db.Add(mk("s", "c", "d"))
	return db
}

// corpus is the remote-equivalence query corpus: selections, expression
// projections, grouping aggregation, joins, set operations, order/limit
// and a subquery — the same shapes the in-process property tests cover.
func corpus(rng *rand.Rand) []string {
	k := func() int { return rng.Intn(6) }
	return []string{
		fmt.Sprintf(`SELECT a, b FROM r WHERE a <= %d AND b > %d`, k(), k()),
		fmt.Sprintf(`SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < %d`, k()),
		fmt.Sprintf(`SELECT b, sum(a) AS s, count(*) AS n FROM r WHERE a < %d GROUP BY b`, k()),
		fmt.Sprintf(`SELECT a FROM r WHERE a < %d UNION SELECT c FROM s WHERE d > %d`, k(), k()),
		fmt.Sprintf(`SELECT a FROM r EXCEPT SELECT c FROM s WHERE d = %d`, k()),
		fmt.Sprintf(`SELECT a, b FROM r WHERE a BETWEEN %d AND %d ORDER BY a LIMIT 3`, k(), k()+3),
		fmt.Sprintf(`SELECT x.ab, count(*) AS n FROM (SELECT a + b AS ab FROM r WHERE a <> %d) x GROUP BY x.ab`, k()),
	}
}

// slowJoinDB builds the quadratic worst case: join keys that all span the
// whole key domain make every pair of rows a join candidate, giving the
// cancellation tests something that runs for seconds unless aborted.
// slowJoinQuery's residual conjunct keeps the result small: only pairs
// with both values 0 join.
func slowJoinDB(rows int) *audb.Database {
	mk := func(name, kc, vc string) *audb.UncertainTable {
		tbl := audb.NewUncertainTable(name, kc, vc)
		for i := 0; i < rows; i++ {
			tbl.AddRow(audb.RangeRow{
				audb.Range(audb.Int(0), audb.Int(int64(i)), audb.Int(int64(rows))),
				audb.CertainOf(audb.Int(int64(i % 31))),
			}, audb.CertainMult(1))
		}
		return tbl
	}
	return audb.New().Add(mk("l", "lk", "lv")).Add(mk("rr", "rk", "rv"))
}

const slowJoinQuery = `SELECT lv, count(*) AS n FROM l JOIN rr ON lk = rk AND lv + rv = 0 GROUP BY lv`

func dial(t testing.TB, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitInFlight polls until the server's in-flight count reaches want.
func waitInFlight(t testing.TB, srv *server.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count stuck at %d, want %d", srv.InFlight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteMatchesInProcess is the acceptance property: concurrent
// remote clients get results bit-identical to in-process execution, for
// a random query corpus across all three engines.
func TestRemoteMatchesInProcess(t *testing.T) {
	testutil.NoLeaks(t)
	trials := 4
	if testing.Short() {
		trials = 2
	}
	engines := []audb.Engine{audb.EngineNative, audb.EngineRewrite, audb.EngineSGW}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*271 + 17)))
		db := randomDB(rng, 2+rng.Intn(6))
		queries := corpus(rng)
		addr, _ := startServer(t, db, server.Config{})

		// In-process expectations first (errors included: the rewrite
		// middleware rejects some shapes, and the remote path must agree).
		type expect struct {
			res string
			err bool
		}
		want := map[string]expect{}
		for _, q := range queries {
			for _, eng := range engines {
				res, err := db.QueryContext(context.Background(), q, audb.WithEngine(eng))
				e := expect{err: err != nil}
				if err == nil {
					e.res = res.Sort().String()
				}
				want[q+"|"+eng.String()] = e
			}
		}

		pool := client.NewPool(addr, 4)
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				for _, q := range queries {
					for _, eng := range engines {
						res, err := pool.Query(ctx, q, client.WithEngine(eng))
						exp := want[q+"|"+eng.String()]
						if exp.err != (err != nil) {
							errCh <- fmt.Errorf("[w%d] %s [%s]: acceptance differs: remote err=%v", w, q, eng, err)
							return
						}
						if err != nil {
							continue
						}
						if got := res.Sort().String(); got != exp.res {
							errCh <- fmt.Errorf("[w%d] %s [%s]: remote result differs:\n%s\nvs in-process:\n%s", w, q, eng, got, exp.res)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreparedStatements: Prepare/Exec round-trips match Query, handles
// survive multiple executions with different options, and a closed
// handle is rejected with unknown_stmt.
func TestPreparedStatements(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(99))
	db := randomDB(rng, 6)
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	const q = `SELECT b, sum(a) AS s FROM r GROUP BY b`
	want, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := c.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Text() != q {
		t.Fatalf("Text = %q", stmt.Text())
	}
	for i := 0; i < 3; i++ {
		got, err := stmt.Exec(ctx, client.WithWorkers(1+i))
		if err != nil {
			t.Fatalf("Exec %d: %v", i, err)
		}
		if got.Sort().String() != want.Sort().String() {
			t.Fatalf("Exec %d differs from Query", i)
		}
	}
	if err := stmt.Close(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = stmt.Exec(ctx)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "unknown_stmt" {
		t.Fatalf("Exec after Close = %v, want unknown_stmt", err)
	}
}

// TestContextCancelFreesServer: cancelling the client context aborts
// the server-side quadratic join within milliseconds and keeps the
// connection usable.
func TestContextCancelFreesServer(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 2500
	if testing.Short() {
		rows = 1200
	}
	addr, srv := startServer(t, slowJoinDB(rows), server.Config{})
	c := dial(t, addr)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Query(ctx, slowJoinQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (after %s)", err, elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("client unblocked after %s, want well under a second", elapsed)
	}
	// The server must drop to zero in-flight promptly: the Cancel frame
	// reached the executing query's context.
	free := time.Now()
	waitInFlight(t, srv, 0)
	if waited := time.Since(free); waited > time.Second {
		t.Fatalf("server still busy %s after cancel", waited)
	}
	// The connection survives a cancelled request.
	if _, err := c.Query(context.Background(), `SELECT lv FROM l WHERE lv < 0`); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
}

// TestDisconnectFreesServer: abruptly closing the client connection
// mid-join cancels the server-side query just as fast as a Cancel frame.
func TestDisconnectFreesServer(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 2500
	if testing.Short() {
		rows = 1200
	}
	addr, srv := startServer(t, slowJoinDB(rows), server.Config{})
	c := dial(t, addr)

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), slowJoinQuery)
		done <- err
	}()
	waitInFlight(t, srv, 1)
	start := time.Now()
	c.Close()
	if err := <-done; err == nil {
		t.Fatal("query on closed connection succeeded")
	}
	waitInFlight(t, srv, 0)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("server freed the worker after %s, want well under a second", elapsed)
	}
}

// TestQueueTimeout: with one execution slot taken by a long query, a
// second query times out in the admission queue with queue_timeout.
func TestQueueTimeout(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 2500
	if testing.Short() {
		rows = 1500
	}
	addr, srv := startServer(t, slowJoinDB(rows), server.Config{
		MaxConcurrency: 1,
		QueueTimeout:   50 * time.Millisecond,
	})
	slow := dial(t, addr)
	defer slow.Close()
	fast := dial(t, addr)
	defer fast.Close()

	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		slow.Query(slowCtx, slowJoinQuery)
	}()
	waitInFlight(t, srv, 1)

	start := time.Now()
	_, err := fast.Query(context.Background(), `SELECT lv FROM l WHERE lv < 0`)
	elapsed := time.Since(start)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "queue_timeout" {
		t.Fatalf("want queue_timeout, got %v (after %s)", err, elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("queue timeout surfaced after %s, want ~50ms", elapsed)
	}
	cancelSlow()
	<-slowDone
}

// TestServerSideDeadline: WithTimeout bounds execution on the server;
// the query fails with the deadline code, not a client-side timeout.
func TestServerSideDeadline(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 2500
	if testing.Short() {
		rows = 1200
	}
	addr, _ := startServer(t, slowJoinDB(rows), server.Config{})
	c := dial(t, addr)
	defer c.Close()

	_, err := c.Query(context.Background(), slowJoinQuery, client.WithTimeout(20*time.Millisecond))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "deadline" {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestGracefulShutdown: Shutdown lets the in-flight query finish and
// deliver its result, refuses a request queued behind it with the
// shutdown code, and rejects new connections.
func TestGracefulShutdown(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 1400 // the in-flight query runs to the end: ~2 s of pairs
	if testing.Short() {
		rows = 850
	}
	db := slowJoinDB(rows)
	srv := server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	c := dial(t, addr)
	defer c.Close()
	// Expected result via a second connection before shutdown begins.
	want, err := c.Query(context.Background(), `SELECT lv FROM l WHERE lv <= 3`)
	if err != nil {
		t.Fatal(err)
	}

	inFlight := make(chan error, 1)
	var got *audb.Result
	go func() {
		res, err := c.Query(context.Background(), slowJoinQuery)
		got = res
		inFlight <- err
	}()
	waitInFlight(t, srv, 1)
	// Queue a second request behind the running one on the same
	// connection: it must be refused, not executed.
	queued := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), `SELECT lv FROM l WHERE lv <= 3`)
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the frame reach the session queue

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// In-flight query completed with its full result.
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	if got == nil || got.Len() == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	// Queued query refused with the shutdown code (or the connection
	// closed under it after the refusal was sent).
	qerr := <-queued
	var se *client.ServerError
	if !errors.As(qerr, &se) || se.Code != "shutdown" {
		t.Fatalf("queued query: want shutdown refusal, got %v", qerr)
	}
	// New connections are refused.
	if cc, err := client.Dial(addr); err == nil {
		cc.Close()
		t.Fatal("Dial succeeded after Shutdown")
	}
	_ = want
}

// TestForcedShutdown: when the drain deadline expires, in-flight
// queries are cancelled through their contexts and Shutdown still
// returns with every session goroutine joined.
func TestForcedShutdown(t *testing.T) {
	testutil.NoLeaks(t)
	rows := 2500
	if testing.Short() {
		rows = 1500
	}
	db := slowJoinDB(rows)
	srv := server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	c := dial(t, lis.Addr().String())
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), slowJoinQuery)
		done <- err
	}()
	waitInFlight(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("forced shutdown took %s", elapsed)
	}
	if err := <-done; err == nil {
		t.Fatal("query survived a forced shutdown")
	}
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("in-flight count %d after forced shutdown", n)
	}
}

// TestBulkIngest: Bulk streams mixed certain/range tuples, the server
// registers the table, and remote queries over it match an in-process
// database built from the same rows.
func TestBulkIngest(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(7))
	addr, _ := startServer(t, randomDB(rng, 4), server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	// Build identical data remotely (Bulk) and locally (UncertainTable).
	local := audb.NewUncertainTable("t", "x", "y")
	b := c.Bulk("t", "x", "y")
	n := 4*1024 + 37 // multiple CopyData chunks plus a tail
	for i := 0; i < n; i++ {
		var row audb.RangeRow
		switch i % 3 {
		case 0:
			row = audb.RangeRow{audb.CertainOf(audb.Int(int64(i % 50))), audb.CertainOf(audb.Int(int64(i % 7)))}
		case 1:
			row = audb.RangeRow{
				audb.Range(audb.Int(int64(i%50-1)), audb.Int(int64(i%50)), audb.Int(int64(i%50+2))),
				audb.CertainOf(audb.Int(int64(i % 7))),
			}
		default:
			row = audb.RangeRow{audb.CertainOf(audb.Int(int64(i % 50))), audb.FullRange(audb.Int(int64(i % 7)))}
		}
		m := audb.CertainMult(int64(1 + i%2))
		if i%5 == 0 {
			m = audb.Mult(0, 1, 2)
		}
		local.AddRow(row, m)
		b.Add(row, m)
	}
	rows, err := b.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rows != uint64(n) {
		t.Fatalf("ingested %d rows, want %d", rows, n)
	}

	names, err := c.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(names, ","), "t") {
		t.Fatalf("table t missing from %v", names)
	}

	ldb := audb.New().Add(local)
	const q = `SELECT y, sum(x) AS s, count(*) AS cnt FROM t GROUP BY y`
	want, err := ldb.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sort().String() != want.Sort().String() {
		t.Fatalf("bulk-ingested query differs:\n%s\nvs\n%s", got.Sort(), want.Sort())
	}
}

// TestBulkErrors: arity mismatches are rejected (client- and
// server-side) and the connection stays usable after a failed copy.
func TestBulkErrors(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(8))
	addr, _ := startServer(t, randomDB(rng, 4), server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	// Client-side arity check.
	b := c.Bulk("bad", "x", "y")
	b.Add(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.CertainMult(1))
	if _, err := b.Close(ctx); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// No table name.
	if _, err := c.Bulk("").Close(ctx); err == nil {
		t.Fatal("empty bulk spec accepted")
	}
	// The connection still works.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after failed bulk: %v", err)
	}
	if _, err := c.Query(ctx, `SELECT a FROM r WHERE a < 0`); err != nil {
		t.Fatalf("query after failed bulk: %v", err)
	}
}

// TestExplainAndStats: the diagnostics round-trip returns the
// server-rendered text audbsh prints locally.
func TestExplainAndStats(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(9))
	db := randomDB(rng, 6)
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	const q = `SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < 3`
	text, err := c.Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if text != want.String() {
		t.Fatalf("remote Explain differs from in-process:\n%s\nvs\n%s", text, want)
	}
	analyzed, err := c.ExplainAnalyze(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"rows=", "Scan"} {
		if !strings.Contains(analyzed, frag) {
			t.Fatalf("ExplainAnalyze output missing %q:\n%s", frag, analyzed)
		}
	}
	st, err := c.TableStats(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := db.TableStats("r")
	if err != nil {
		t.Fatal(err)
	}
	if st != wantSt.String() {
		t.Fatal("remote TableStats differs from in-process")
	}
	if _, err := c.Analyze(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TableStats(ctx, "missing"); err == nil {
		t.Fatal("stats for unknown table succeeded")
	}
}

// TestServerErrors: SQL errors carry the sql code and the connection
// survives them.
func TestServerErrors(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(10))
	addr, _ := startServer(t, randomDB(rng, 4), server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	_, err := c.Query(ctx, `SELECT nope FROM missing`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "sql" {
		t.Fatalf("want sql error, got %v", err)
	}
	if se.Error() == "" || !strings.Contains(se.Error(), "sql") {
		t.Fatalf("ServerError rendering: %q", se.Error())
	}
	if _, err := c.Query(ctx, `SELECT a FROM r WHERE a < 2`); err != nil {
		t.Fatalf("query after SQL error: %v", err)
	}
}

// TestMergeOverflowKeepsConnection: a query whose final merge sums two
// SG multiplicities past MaxInt64 fails with a coded integer-overflow
// error, and the same connection then answers Ping: a wrapped SG would
// reach the client as an invalid triple, which its decoder rejects by
// closing the connection.
func TestMergeOverflowKeepsConnection(t *testing.T) {
	testutil.NoLeaks(t)
	half := int64(math.MaxInt64/2 + 5)
	row := audb.RangeRow{audb.CertainOf(audb.Int(1))}
	db := audb.New()
	db.Add(audb.NewUncertainTable("u", "a").
		AddRow(row, audb.Mult(1, half, half)).
		AddRow(row, audb.Mult(1, half, half)))
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	for _, q := range []string{`SELECT a FROM u`, `SELECT count(*) FROM u`} {
		_, err := c.Query(ctx, q)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != "sql" || !strings.Contains(se.Error(), "integer overflow") {
			t.Fatalf("%s: want a sql integer-overflow error, got %v", q, err)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping after %s: %v", q, err)
		}
	}
}

// TestJoinOverflowKeepsConnection: a join whose SG multiplicity product
// leaves int64 is a sql-coded error, and the connection stays usable. The
// wrapped product used to reach the encoder as a negative multiplicity,
// and the client closed the connection on it.
func TestJoinOverflowKeepsConnection(t *testing.T) {
	testutil.NoLeaks(t)
	const n = 3_100_000_000
	db := audb.New()
	db.Add(audb.NewUncertainTable("u", "a").AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(n, n, n)))
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()
	_, err := c.Query(ctx, `SELECT x.a FROM u x JOIN u y ON x.a = y.a`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "sql" || !strings.Contains(se.Error(), "integer overflow") {
		t.Fatalf("want a sql integer-overflow error, got %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after the overflow: %v", err)
	}
}

// TestDiffOverflowKeepsConnection: a difference whose SG multiplicity sum
// leaves int64, on either side, is a sql-coded error, and the connection
// stays usable. The sums used to wrap to a silently wrong answer.
func TestDiffOverflowKeepsConnection(t *testing.T) {
	testutil.NoLeaks(t)
	const half = math.MaxInt64/2 + 5
	db := audb.New()
	db.Add(audb.NewUncertainTable("u", "a").
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(1, half, half)).
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(1, half, half)))
	db.Add(audb.NewUncertainTable("w", "a").
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(0, half, half)).
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(0, half, half)))
	db.Add(audb.NewUncertainTable("v", "a").AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(1, 1, 1)))
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{
		`SELECT a FROM u EXCEPT SELECT a FROM u WHERE a > 5`,
		`SELECT a FROM v EXCEPT SELECT a FROM w`,
	} {
		_, err := c.Query(ctx, q)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != "sql" || !strings.Contains(se.Error(), "integer overflow") {
			t.Fatalf("%s: want a sql integer-overflow error, got %v", q, err)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("%s: ping after the overflow: %v", q, err)
		}
	}
	if res, err := c.Query(ctx, `SELECT a FROM v EXCEPT SELECT a FROM u WHERE a > 5`); err != nil || res.Len() != 1 {
		t.Fatalf("query after the overflows: %v, %v", res, err)
	}
}

// TestLimitOverflowKeepsConnection: LIMIT and top-k over duplicate rows
// whose SG multiplicity sum leaves int64 are sql-coded errors, and the
// connection stays usable. The pipelined sums used to wrap.
func TestLimitOverflowKeepsConnection(t *testing.T) {
	testutil.NoLeaks(t)
	const half = math.MaxInt64/2 + 5
	db := audb.New()
	db.Add(audb.NewUncertainTable("u", "a").
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(1, half, half)).
		AddRow(audb.RangeRow{audb.CertainOf(audb.Int(1))}, audb.Mult(1, half, half)))
	addr, _ := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{
		`SELECT a FROM u LIMIT 5`,
		`SELECT a FROM u ORDER BY a LIMIT 5`,
	} {
		_, err := c.Query(ctx, q)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != "sql" || !strings.Contains(se.Error(), "integer overflow") {
			t.Fatalf("%s: want a sql integer-overflow error, got %v", q, err)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("%s: ping after the overflow: %v", q, err)
		}
	}
	if res, err := c.Query(ctx, `SELECT a FROM u WHERE a > 5 LIMIT 5`); err != nil || res.Len() != 0 {
		t.Fatalf("query after the overflows: %v, %v", res, err)
	}
}

// TestPoolReuse: the pool hands back the same connection, discards
// broken ones, and Close leaves no goroutines behind.
func TestPoolReuse(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(11))
	addr, _ := startServer(t, randomDB(rng, 4), server.Config{})
	pool := client.NewPool(addr, 2)
	ctx := context.Background()

	c1, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(c1)
	c2, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pool did not reuse the idle connection")
	}
	// A broken connection is not pooled.
	c2.Close()
	pool.Put(c2)
	c3, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Fatal("pool handed back a closed connection")
	}
	if err := c3.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	pool.Put(c3)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(ctx); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Get on closed pool = %v", err)
	}
}

// TestHandshake: the connection reports the server name and the tables
// visible at connect time.
func TestHandshake(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(12))
	addr, _ := startServer(t, randomDB(rng, 2), server.Config{Name: "audbd-test"})
	c, err := client.DialConfig(addr, client.Config{Name: "handshake-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Server() != "audbd-test" {
		t.Fatalf("server name %q", c.Server())
	}
	if got := strings.Join(c.TablesAtConnect(), ","); got != "r,s" {
		t.Fatalf("tables at connect: %q", got)
	}
}

// TestTraceAndServerStats: the observability round trips — Trace
// returns the server-rendered span tree, ServerStats the metric
// snapshot, and both flow through the normal request/response plumbing
// (errors included).
func TestTraceAndServerStats(t *testing.T) {
	testutil.NoLeaks(t)
	rng := rand.New(rand.NewSource(11))
	addr, _ := startServer(t, randomDB(rng, 6), server.Config{})
	c := dial(t, addr)
	defer c.Close()
	ctx := context.Background()

	text, err := c.Trace(ctx, `SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"request", "admission.wait", "parse", "optimize", "execute", "wire.encode"} {
		if !strings.Contains(text, span) {
			t.Errorf("trace missing %q:\n%s", span, text)
		}
	}
	if _, err := c.Trace(ctx, `SELECT broken FROM r`); err == nil {
		t.Fatal("Trace of a bad query should error")
	}
	var se *client.ServerError
	if err := func() error { _, err := c.Trace(ctx, `SELECT broken FROM r`); return err }(); !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}

	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"audbd_requests_total", "audb_queries_total"} {
		if !strings.Contains(stats, want) {
			t.Errorf("server stats missing %q:\n%s", want, stats)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/client"
	"github.com/audb/audb/internal/server"
)

// queryOpts pins the executor for every query the benchmark sends: one
// worker, so the executor does not fan out over the box's two cores and
// pick up the neighbours' scheduling noise. Compression stays at its
// default (off).
var queryOpts = []client.QueryOption{client.WithWorkers(1)}

// instance is one loopback audbd with the benchmark's single connection.
type instance struct {
	srv      *server.Server
	conn     *client.Conn
	serveErr chan error
}

func startInstance() (*instance, error) {
	srv := server.New(audb.New(), server.Config{TraceSample: -1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{srv: srv, serveErr: make(chan error, 1)}
	go func() { in.serveErr <- srv.Serve(lis) }()
	in.conn, err = client.Dial(lis.Addr().String())
	if err != nil {
		in.stop()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return in, nil
}

// stop closes the connection, drains the server and waits for Serve to
// return, so no goroutine of this instance outlives it.
func (in *instance) stop() {
	if in.conn != nil {
		in.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx) // a forced shutdown still joins every session
	<-in.serveErr
}

// copyTable streams t into the server under name, replacing any table of
// that name: Bulk begin to CopyOK.
func (in *instance) copyTable(ctx context.Context, name string, t *table) error {
	b := in.conn.Bulk(name, t.cols...)
	for _, tup := range t.tuples {
		b.Add(tup.Vals, tup.M)
	}
	n, err := b.Close(ctx)
	if err != nil {
		return fmt.Errorf("copy %s: %w", name, err)
	}
	if int(n) != len(t.tuples) {
		return fmt.Errorf("copy %s: server registered %d rows, sent %d", name, n, len(t.tuples))
	}
	return nil
}

// copyTables loads several tables under their own names.
func (in *instance) copyTables(ctx context.Context, ts []table) error {
	for i := range ts {
		if err := in.copyTable(ctx, ts[i].name, &ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// dropTables removes tables in-process, which the harness does before it
// COPY-replaces them. It is a workaround: core.Catalog remembers every
// relation ever registered (its compaction marker map) and forgets one only
// on Drop, so a plain COPY over an existing name retains the replaced
// relation for the life of the server. Left alone, an ingest run's heap —
// and with it the forced collection before every op — grows with the cycle
// count, and latencies drift within the run. The traced run still measures
// the defect itself (core.replace_retained_bytes_per_row).
func (in *instance) dropTables(ts []table) {
	for i := range ts {
		in.srv.DB().Drop(ts[i].name)
	}
}

// replaceTables swaps in new content for tables that are already loaded.
func (in *instance) replaceTables(ctx context.Context, ts []table) error {
	in.dropTables(ts)
	return in.copyTables(ctx, ts)
}

// setupResult is what one set-up measured.
type setupResult struct {
	seconds     float64
	storedBytes float64 // GC-settled heap growth across the set-up
}

// settledHeap returns HeapAlloc after two collections (the second frees
// what the first one's finalizers released).
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup brings up a server the way a deployment would before taking
// traffic: start, connect, load every table over COPY, ANALYZE, then run
// warm-up rounds. All of it is inside setup_s; generating the data is not.
func setup(ctx context.Context, w workload, d *dataset) (*instance, setupResult, error) {
	heap0 := settledHeap()
	start := time.Now()
	in, err := startInstance()
	if err != nil {
		return nil, setupResult{}, err
	}
	fail := func(err error) (*instance, setupResult, error) {
		in.stop()
		return nil, setupResult{}, err
	}
	if err := in.copyTables(ctx, d.base); err != nil {
		return fail(err)
	}
	for _, t := range d.base {
		if _, err := in.conn.Analyze(ctx, t.name); err != nil {
			return fail(fmt.Errorf("analyze %s: %w", t.name, err))
		}
	}
	for r := 0; r < w.warmRounds; r++ {
		if w.ingest {
			if err := in.replaceTables(ctx, d.variants[r%len(d.variants)]); err != nil {
				return fail(err)
			}
		}
		for _, c := range classes {
			if _, err := in.conn.Query(ctx, c.sql, queryOpts...); err != nil {
				return fail(fmt.Errorf("warm-up %s: %w", c.name, err))
			}
		}
	}
	res := setupResult{seconds: time.Since(start).Seconds()}
	if w.ingest {
		// Leave the base content loaded whatever the warm-up count was.
		if err := in.replaceTables(ctx, d.variants[0]); err != nil {
			return fail(err)
		}
	}
	res.storedBytes = float64(settledHeap()) - float64(heap0)
	return in, res, nil
}

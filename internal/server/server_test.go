package server_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/server"
	"github.com/audb/audb/internal/testutil"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/wire"
)

// rawConn is a hand-driven protocol client for exercising the server's
// error paths below what the client package would ever send.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

func testDB(t testing.TB) *audb.Database {
	tbl := audb.NewUncertainTable("t", "x", "y")
	for i := 0; i < 8; i++ {
		tbl.AddCertainRow(audb.Int(int64(i)), audb.Int(int64(i%3)))
	}
	return audb.New().Add(tbl)
}

func startServer(t *testing.T, cfg server.Config) (string, *server.Server) {
	t.Helper()
	srv := server.New(testDB(t), cfg)
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

// dialRaw connects without the handshake.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
}

// hello performs a valid handshake.
func (rc *rawConn) hello() wire.HelloOK {
	rc.t.Helper()
	rc.send(wire.Hello{Version: wire.Version, Client: "rawtest"})
	ok, isOK := rc.read().(wire.HelloOK)
	if !isOK {
		rc.t.Fatal("handshake refused")
	}
	return ok
}

func (rc *rawConn) send(m wire.Msg) {
	rc.t.Helper()
	if err := rc.w.Write(m); err != nil {
		rc.t.Fatalf("write %s: %v", wire.TypeName(wire.Type(m)), err)
	}
}

func (rc *rawConn) read() wire.Msg {
	rc.t.Helper()
	m, err := rc.r.Read()
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return m
}

// wantError reads one frame and asserts it is an Error with the code.
func (rc *rawConn) wantError(id uint64, code string) wire.Error {
	rc.t.Helper()
	e, isErr := rc.read().(wire.Error)
	if !isErr {
		rc.t.Fatal("expected an Error frame")
	}
	if e.ID != id || e.Code != code {
		rc.t.Fatalf("Error{ID:%d Code:%q Message:%q}, want id %d code %q", e.ID, e.Code, e.Message, id, code)
	}
	return e
}

// expectClosed asserts the server hung up.
func (rc *rawConn) expectClosed() {
	rc.t.Helper()
	if _, err := rc.r.Read(); err == nil {
		rc.t.Fatal("connection still open, want close")
	}
}

// TestHandshakeVersionMismatch: an unsupported protocol version — a
// future one, or the previous one an old client still speaks — is
// refused with a proto error and the connection closes.
func TestHandshakeVersionMismatch(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	for _, v := range []uint32{999, wire.Version - 1} {
		rc := dialRaw(t, addr)
		rc.send(wire.Hello{Version: v, Client: "mismatched"})
		rc.wantError(0, wire.CodeProto)
		rc.expectClosed()
	}
}

// TestHandshakeWrongFirstFrame: anything but Hello first is refused.
func TestHandshakeWrongFirstFrame(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.send(wire.Ping{ID: 1})
	rc.wantError(0, wire.CodeProto)
	rc.expectClosed()
}

// TestUnexpectedMessagePoisons: a response-typed frame sent as a
// request is a protocol error that ends the session.
func TestUnexpectedMessagePoisons(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.hello()
	rc.send(wire.Pong{ID: 1})
	rc.wantError(0, wire.CodeProto)
	rc.expectClosed()
}

// TestCopyProtocolErrors: stray CopyData/CopyEnd, double CopyBegin and
// arity mismatches all answer with precise errors, and the session
// recovers for subsequent requests.
func TestCopyProtocolErrors(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.hello()

	// CopyData with no open stream.
	rc.send(wire.CopyData{ID: 1})
	rc.wantError(1, wire.CodeProto)
	// CopyEnd with no open stream.
	rc.send(wire.CopyEnd{ID: 2})
	rc.wantError(2, wire.CodeProto)
	// CopyBegin without columns.
	rc.send(wire.CopyBegin{ID: 3, Table: "u"})
	rc.wantError(3, wire.CodeProto)

	// Open a stream, then a second CopyBegin is refused while the first
	// stays open.
	rc.send(wire.CopyBegin{ID: 4, Table: "u", Cols: []string{"x"}})
	rc.send(wire.CopyBegin{ID: 5, Table: "v", Cols: []string{"x"}})
	rc.wantError(5, wire.CodeProto)

	// An arity-mismatched chunk fails the stream immediately...
	rc.send(wire.CopyData{ID: 4, Tuples: tuples(2, 3)})
	rc.wantError(4, wire.CodeProto)
	// ...later chunks for the failed stream are dropped silently, and
	// CopyEnd clears the state without a second response.
	rc.send(wire.CopyData{ID: 4, Tuples: tuples(1, 1)})
	rc.send(wire.CopyEnd{ID: 4})

	// The session is healthy again: a fresh single-column copy commits.
	rc.send(wire.CopyBegin{ID: 6, Table: "u", Cols: []string{"x"}})
	rc.send(wire.CopyData{ID: 6, Tuples: tuples(1, 5)})
	rc.send(wire.CopyEnd{ID: 6})
	ok, isOK := rc.read().(wire.CopyOK)
	if !isOK || ok.ID != 6 || ok.Rows != 5 {
		t.Fatalf("CopyOK = %+v", ok)
	}
	rc.send(wire.Ping{ID: 7})
	if p, isPong := rc.read().(wire.Pong); !isPong || p.ID != 7 {
		t.Fatal("ping after copy recovery failed")
	}
}

// tuples builds n certain tuples of the given arity.
func tuples(arity, n int) []core.Tuple {
	out := make([]core.Tuple, n)
	for i := range out {
		vals := make(rangeval.Tuple, arity)
		for c := range vals {
			vals[c] = rangeval.Certain(types.Int(int64(i + c)))
		}
		out[i] = core.Tuple{Vals: vals, M: core.One}
	}
	return out
}

// TestUnknownStatementHandle: ExecStmt/CloseStmt with a stale handle.
func TestUnknownStatementHandle(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.hello()
	rc.send(wire.ExecStmt{ID: 1, Stmt: 42})
	rc.wantError(1, wire.CodeUnknownStmt)
	rc.send(wire.CloseStmt{ID: 2, Stmt: 42})
	rc.wantError(2, wire.CodeUnknownStmt)
}

// TestCancelUnknownID: Cancel for an unknown or finished request is
// ignored (fire-and-forget), not an error.
func TestCancelUnknownID(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.hello()
	rc.send(wire.Cancel{ID: 999})
	rc.send(wire.Ping{ID: 1})
	if p, ok := rc.read().(wire.Pong); !ok || p.ID != 1 {
		t.Fatal("session died on a stray Cancel")
	}
}

// TestCancelBeforeExecution: a Cancel that lands while the request is
// still queued makes it fail with canceled instead of running.
func TestCancelBeforeExecution(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{})
	rc := dialRaw(t, addr)
	rc.hello()
	// Pipeline: a query and its own cancellation back to back. The
	// executor may or may not have started the query when the Cancel
	// arrives; either way the response must be canceled or the result —
	// never a hang. Use a tiny query so the race is harmless.
	rc.send(wire.Query{ID: 1, SQL: `SELECT x FROM t WHERE x < 0`})
	rc.send(wire.Cancel{ID: 1})
	m := rc.read()
	switch m := m.(type) {
	case wire.Result:
	case wire.Error:
		if m.Code != wire.CodeCanceled {
			t.Fatalf("Error code %q, want canceled", m.Code)
		}
	default:
		t.Fatalf("unexpected %s", wire.TypeName(wire.Type(m)))
	}
}

// TestServeAfterShutdown: Serve on a shut-down server refuses.
func TestServeAfterShutdown(t *testing.T) {
	testutil.NoLeaks(t)
	srv := server.New(testDB(t), server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown = %v", err)
	}
}

// TestMaxFrameEnforced: a frame above the configured cap kills the
// session instead of allocating.
func TestMaxFrameEnforced(t *testing.T) {
	testutil.NoLeaks(t)
	addr, _ := startServer(t, server.Config{MaxFrame: 64})
	rc := dialRaw(t, addr)
	rc.send(wire.Hello{Version: wire.Version, Client: "small"})
	ok, isOK := rc.read().(wire.HelloOK)
	if !isOK {
		t.Fatalf("handshake: %+v", ok)
	}
	rc.send(wire.Query{ID: 1, SQL: string(make([]byte, 1024))})
	rc.expectClosed()
}

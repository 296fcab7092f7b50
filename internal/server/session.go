package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/obs"
	"github.com/audb/audb/internal/wire"
)

// handshakeTimeout bounds how long a fresh connection may take to send
// Hello before the server hangs up.
const handshakeTimeout = 10 * time.Second

// reqQueueDepth is the per-session request buffer between the socket
// reader and the executor. Deep enough for a pipelined COPY stream; when
// it fills, TCP backpressure slows the client down.
const reqQueueDepth = 64

// reqState tracks one request from the moment the reader accepts it to
// the moment the executor answers it, so a Cancel frame can reach the
// request whether it is queued or executing.
type reqState struct {
	cancel    context.CancelFunc // set once the executor starts the request
	cancelled bool               // set by a Cancel frame or disconnect
}

// session is one client connection: a reader goroutine that demuxes
// Cancel frames out-of-band, and the executor (the run goroutine) that
// handles requests serially and owns all writes.
type session struct {
	srv  *Server
	conn net.Conn
	ctx  context.Context // derived from Server.baseCtx; forced shutdown cancels it
	r    *wire.Reader
	w    *wire.Writer

	drain     chan struct{} // closed by Shutdown: finish in-flight, refuse the rest
	drainOnce sync.Once

	mu      sync.Mutex
	pending map[uint64]*reqState

	stmts    map[uint64]*audb.Stmt
	nextStmt uint64
	cp       *copyState
	werr     error // first write error; poisons the session
}

// copyState is an open COPY stream. Rows stream into a TableLoader, so
// the table materializes directly in the columnar layout with statistics
// collected in the same pass — CopyEnd publishes a fully analyzed table
// without a second scan.
type copyState struct {
	id     uint64
	table  string
	ld     *audb.TableLoader
	ctx    context.Context
	cancel context.CancelFunc
	poll   *ctxpoll.Poll
	failed bool
	sp     *obs.Span // sampled COPY-stream span, nil when unsampled
}

func newSession(s *Server, conn net.Conn) *session {
	se := &session{
		srv:     s,
		conn:    conn,
		ctx:     s.baseCtx,
		r:       wire.NewReader(conn),
		w:       wire.NewWriter(conn),
		drain:   make(chan struct{}),
		pending: make(map[uint64]*reqState),
		stmts:   make(map[uint64]*audb.Stmt),
	}
	if s.cfg.MaxFrame > 0 {
		se.r.SetMaxFrame(s.cfg.MaxFrame)
	}
	se.r.SetByteCounter(s.met.bytesIn)
	se.w.SetByteCounter(s.met.bytesOut)
	return se
}

// startDrain signals the session to finish its in-flight request and
// close. Idempotent.
func (se *session) startDrain() { se.drainOnce.Do(func() { close(se.drain) }) }

// run is the session body: handshake, then the reader/executor pair.
// It returns when the connection is done; the caller removes the
// session from the server.
func (se *session) run() {
	defer se.conn.Close()
	if !se.handshake() {
		return
	}
	reqCh := make(chan wire.Msg, reqQueueDepth)
	go se.readLoop(reqCh)
	se.execLoop(reqCh)
}

// handshake reads Hello under a deadline and answers HelloOK.
func (se *session) handshake() bool {
	se.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	m, err := se.r.Read()
	if err != nil {
		se.srv.logf("audbd: %s: handshake: %v", se.conn.RemoteAddr(), err)
		return false
	}
	se.conn.SetReadDeadline(time.Time{})
	hello, ok := m.(wire.Hello)
	if !ok {
		se.send(wire.Error{Code: wire.CodeProto, Message: fmt.Sprintf("expected Hello, got %s", wire.TypeName(wire.Type(m)))})
		return false
	}
	if hello.Version != wire.Version {
		se.send(wire.Error{Code: wire.CodeProto, Message: fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, wire.Version)})
		return false
	}
	se.srv.logf("audbd: %s: connected (%s)", se.conn.RemoteAddr(), hello.Client)
	return se.send(wire.HelloOK{Version: wire.Version, Server: se.srv.cfg.Name, Tables: se.srv.db.Tables()})
}

// readLoop stays on the socket for the whole session so Cancel frames
// and disconnects are seen even while a query executes. Requests are
// handed to the executor; when the connection breaks, every pending
// request is cancelled (freeing the executor within milliseconds) and
// the channel is closed.
func (se *session) readLoop(reqCh chan<- wire.Msg) {
	defer close(reqCh)
	for {
		m, err := se.r.Read()
		if err != nil {
			se.cancelAllPending()
			return
		}
		if c, ok := m.(wire.Cancel); ok {
			se.cancelPending(c.ID)
			continue
		}
		if id, ok := requestID(m); ok {
			se.trackPending(id)
		}
		select {
		case reqCh <- m:
		case <-se.ctx.Done(): // forced shutdown while the queue is full
			return
		}
	}
}

// execLoop handles requests serially until the connection breaks or the
// server drains. On drain, queued requests are refused with
// CodeShutdown before the connection closes.
func (se *session) execLoop(reqCh <-chan wire.Msg) {
	for {
		// Drain wins over queued work: once Shutdown signals, requests
		// that have not started are refused, not raced against the signal.
		select {
		case <-se.drain:
			se.refuseQueued(reqCh)
			se.conn.Close() // unblocks the reader; it closes reqCh
			for range reqCh {
			}
			return
		default:
		}
		select {
		case m, ok := <-reqCh:
			if !ok {
				return
			}
			se.handle(m)
			if se.werr != nil {
				return
			}
		case <-se.drain:
			se.refuseQueued(reqCh)
			se.conn.Close()
			for range reqCh {
			}
			return
		}
	}
}

// refuseQueued answers every request already sitting in the queue with
// CodeShutdown, without blocking for more.
func (se *session) refuseQueued(reqCh <-chan wire.Msg) {
	for {
		select {
		case m, ok := <-reqCh:
			if !ok {
				return
			}
			if id, ok := requestID(m); ok {
				se.respond(id, wire.Error{ID: id, Code: wire.CodeShutdown, Message: "server shutting down"})
			}
		default:
			return
		}
	}
}

// requestID extracts the ID of a request that will receive a response.
// CopyData/CopyEnd continue the CopyBegin request and are excluded.
func requestID(m wire.Msg) (uint64, bool) {
	switch m := m.(type) {
	case wire.Query:
		return m.ID, true
	case wire.Prepare:
		return m.ID, true
	case wire.ExecStmt:
		return m.ID, true
	case wire.CloseStmt:
		return m.ID, true
	case wire.CopyBegin:
		return m.ID, true
	case wire.Explain:
		return m.ID, true
	case wire.TableStats:
		return m.ID, true
	case wire.Ping:
		return m.ID, true
	case wire.ListTables:
		return m.ID, true
	case wire.Trace:
		return m.ID, true
	case wire.ServerStats:
		return m.ID, true
	}
	return 0, false
}

// trackPending registers a request the moment the reader accepts it, so
// a Cancel racing ahead of execution is not lost. Copy continuation
// frames keep the CopyBegin entry.
func (se *session) trackPending(id uint64) {
	se.mu.Lock()
	if _, ok := se.pending[id]; !ok {
		se.pending[id] = &reqState{}
	}
	se.mu.Unlock()
}

// cancelPending handles a Cancel frame: mark the request, and if it is
// already executing, cancel its context.
func (se *session) cancelPending(id uint64) {
	se.mu.Lock()
	if st := se.pending[id]; st != nil {
		st.cancelled = true
		if st.cancel != nil {
			st.cancel()
		}
	}
	se.mu.Unlock()
}

// cancelAllPending aborts everything on disconnect.
func (se *session) cancelAllPending() {
	se.mu.Lock()
	for _, st := range se.pending {
		st.cancelled = true
		if st.cancel != nil {
			st.cancel()
		}
	}
	se.mu.Unlock()
}

// begin creates the request context (deadline from the client's
// TimeoutMS capped by MaxQueryTime) and arms the pending entry's cancel
// hook. It reports false if the request was cancelled while queued.
func (se *session) begin(id uint64, timeoutMS uint64) (context.Context, context.CancelFunc, bool) {
	timeout := time.Duration(0)
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if max := se.srv.cfg.MaxQueryTime; max > 0 && (timeout == 0 || max < timeout) {
		timeout = max
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	st := se.pending[id]
	if st == nil {
		st = &reqState{}
		se.pending[id] = st
	}
	if st.cancelled {
		return nil, nil, false
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(se.ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(se.ctx)
	}
	st.cancel = cancel
	return ctx, cancel, true
}

// respond removes the pending entry and writes the response. All
// responses funnel through here so the entry lifetime is airtight.
func (se *session) respond(id uint64, m wire.Msg) {
	se.mu.Lock()
	delete(se.pending, id)
	se.mu.Unlock()
	se.send(m)
}

// send writes one frame; after the first write error the session is
// poisoned and further sends are dropped.
func (se *session) send(m wire.Msg) bool {
	if se.werr != nil {
		return false
	}
	if err := se.w.Write(m); err != nil {
		se.werr = err
		return false
	}
	return true
}

func (se *session) fail(id uint64, code, format string, args ...any) {
	se.srv.met.errors.With(code).Add(1)
	se.respond(id, wire.Error{ID: id, Code: code, Message: fmt.Sprintf(format, args...)})
}

// errCode maps an execution error to its wire code.
func errCode(err error) string {
	switch {
	case errors.Is(err, errQueueTimeout):
		return wire.CodeQueueTimeout
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	default:
		return wire.CodeSQL
	}
}

// queryOptions maps the wire options onto the session API's functional
// options. Zero values select the API defaults, so only the overrides
// are materialized.
func queryOptions(o wire.ExecOptions) []audb.QueryOption {
	var opts []audb.QueryOption
	if o.Engine != 0 {
		opts = append(opts, audb.WithEngine(audb.Engine(o.Engine)))
	}
	if o.Workers != 0 {
		opts = append(opts, audb.WithWorkers(clampWorkers(o.Workers)))
	}
	if o.JoinCompression > 0 {
		opts = append(opts, audb.WithJoinCompression(o.JoinCompression))
	}
	if o.AggCompression > 0 {
		opts = append(opts, audb.WithAggCompression(o.AggCompression))
	}
	return opts
}

// clampWorkers bounds a client's worker count by the server's
// GOMAXPROCS. The kernels cap their chunk count only by input size, so an
// unbounded request would let one admitted query start thousands of
// goroutines. Zero and negative counts already mean one worker per CPU.
func clampWorkers(n int) int {
	if limit := runtime.GOMAXPROCS(0); n > limit {
		return limit
	}
	return n
}

// handle dispatches one request. Unexpected message types poison the
// session (protocol error).
func (se *session) handle(m wire.Msg) {
	se.srv.met.requests.Add(1)
	switch m := m.(type) {
	case wire.Query:
		se.handleQuery(m)
	case wire.Prepare:
		se.handlePrepare(m)
	case wire.ExecStmt:
		se.handleExecStmt(m)
	case wire.CloseStmt:
		se.handleCloseStmt(m)
	case wire.CopyBegin:
		se.handleCopyBegin(m)
	case wire.CopyData:
		se.handleCopyData(m)
	case wire.CopyEnd:
		se.handleCopyEnd(m)
	case wire.Explain:
		se.handleExplain(m)
	case wire.TableStats:
		se.handleTableStats(m)
	case wire.Trace:
		se.handleTrace(m)
	case wire.ServerStats:
		se.respond(m.ID, wire.ServerStatsResult{ID: m.ID, Text: se.srv.StatsText()})
	case wire.Ping:
		se.respond(m.ID, wire.Pong{ID: m.ID})
	case wire.ListTables:
		se.respond(m.ID, wire.Tables{ID: m.ID, Names: se.srv.db.Tables()})
	default:
		se.send(wire.Error{Code: wire.CodeProto, Message: fmt.Sprintf("unexpected %s", wire.TypeName(wire.Type(m)))})
		se.werr = errors.New("protocol error")
	}
}

// execute runs fn under admission control and the request context; it
// is the shared body of Query, ExecStmt and ExplainAnalyze. One request
// in every Config.TraceSample gets a server span (admission wait +
// execution) recorded into the ring ServerStats reports; the untraced
// rest pay only nil-span checks.
func (se *session) execute(id uint64, timeoutMS uint64, fn func(ctx context.Context) (wire.Msg, error)) {
	var sp *obs.Span
	if se.srv.rec.Sample() {
		sp = obs.StartSpan("request")
		sp.SetInt("id", int64(id))
	}
	ctx, cancel, ok := se.begin(id, timeoutMS)
	if !ok {
		se.fail(id, wire.CodeCanceled, "request cancelled before execution")
		return
	}
	defer cancel()
	wait := sp.StartChild("admission.wait")
	err := se.acquireSlot(ctx)
	wait.End()
	if err != nil {
		se.fail(id, errCode(err), "%v", err)
		return
	}
	se.srv.inFlight.Add(1)
	ex := sp.StartChild("execute")
	resp, err := fn(ctx)
	ex.End()
	se.srv.inFlight.Add(-1)
	se.srv.release()
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", errCode(err))
		}
		sp.End()
		se.srv.rec.Record(sp)
	}
	if err != nil {
		se.fail(id, errCode(err), "%v", err)
		return
	}
	se.respond(id, resp)
}

func (se *session) acquireSlot(ctx context.Context) error { return se.srv.acquire(ctx) }

func (se *session) handleQuery(m wire.Query) {
	se.execute(m.ID, m.Opts.TimeoutMS, func(ctx context.Context) (wire.Msg, error) {
		res, err := se.srv.db.QueryContext(ctx, m.SQL, queryOptions(m.Opts)...)
		if err != nil {
			return nil, err
		}
		return wire.Result{ID: m.ID, Rel: res}, nil
	})
}

func (se *session) handlePrepare(m wire.Prepare) {
	st, err := se.srv.db.Prepare(m.SQL)
	if err != nil {
		se.fail(m.ID, wire.CodeSQL, "%v", err)
		return
	}
	se.nextStmt++
	h := se.nextStmt
	se.stmts[h] = st
	se.respond(m.ID, wire.PrepareOK{ID: m.ID, Stmt: h})
}

func (se *session) handleExecStmt(m wire.ExecStmt) {
	st := se.stmts[m.Stmt]
	if st == nil {
		se.fail(m.ID, wire.CodeUnknownStmt, "unknown statement handle %d", m.Stmt)
		return
	}
	se.execute(m.ID, m.Opts.TimeoutMS, func(ctx context.Context) (wire.Msg, error) {
		res, err := st.Exec(ctx, queryOptions(m.Opts)...)
		if err != nil {
			return nil, err
		}
		return wire.Result{ID: m.ID, Rel: res}, nil
	})
}

func (se *session) handleCloseStmt(m wire.CloseStmt) {
	if _, ok := se.stmts[m.Stmt]; !ok {
		se.fail(m.ID, wire.CodeUnknownStmt, "unknown statement handle %d", m.Stmt)
		return
	}
	delete(se.stmts, m.Stmt)
	se.respond(m.ID, wire.OK{ID: m.ID})
}

func (se *session) handleExplain(m wire.Explain) {
	if !m.Analyze {
		// Plain Explain never executes; no admission slot, no deadline.
		exp, err := se.srv.db.Explain(m.SQL, queryOptions(m.Opts)...)
		if err != nil {
			se.fail(m.ID, wire.CodeSQL, "%v", err)
			return
		}
		se.respond(m.ID, wire.ExplainResult{ID: m.ID, Text: exp.String()})
		return
	}
	se.execute(m.ID, m.Opts.TimeoutMS, func(ctx context.Context) (wire.Msg, error) {
		exp, err := se.srv.db.ExplainAnalyze(ctx, m.SQL, queryOptions(m.Opts)...)
		if err != nil {
			return nil, err
		}
		return wire.ExplainResult{ID: m.ID, Text: exp.String()}, nil
	})
}

// handleTrace runs Database.Trace under the same admission control and
// deadline handling as a Query, wrapping the database's lifecycle trace
// in server spans: the admission-queue wait before it, and a wire-encode
// span measuring the result's encoded size after it. Explicit traces
// bypass sampling — the full span tree is always recorded and returned.
func (se *session) handleTrace(m wire.Trace) {
	ctx, cancel, ok := se.begin(m.ID, m.Opts.TimeoutMS)
	if !ok {
		se.fail(m.ID, wire.CodeCanceled, "request cancelled before execution")
		return
	}
	defer cancel()
	root := obs.StartSpan("request")
	root.SetInt("id", int64(m.ID))
	wait := root.StartChild("admission.wait")
	if err := se.acquireSlot(ctx); err != nil {
		se.fail(m.ID, errCode(err), "%v", err)
		return
	}
	wait.End()
	se.srv.inFlight.Add(1)
	qt, err := se.srv.db.Trace(ctx, m.SQL, queryOptions(m.Opts)...)
	se.srv.inFlight.Add(-1)
	se.srv.release()
	if err != nil {
		se.fail(m.ID, errCode(err), "%v", err)
		return
	}
	root.Attach(qt.Root)
	enc := root.StartChild("wire.encode")
	encoded := len(wire.AppendRelation(nil, qt.Result))
	enc.End()
	enc.SetInt("bytes", int64(encoded))
	root.End()
	se.srv.rec.Record(root)
	se.respond(m.ID, wire.TraceResult{ID: m.ID, Text: root.String()})
}

func (se *session) handleTableStats(m wire.TableStats) {
	var ts *audb.TableStats
	var err error
	if m.Analyze {
		ts, err = se.srv.db.Analyze(m.Table)
	} else {
		ts, err = se.srv.db.TableStats(m.Table)
	}
	if err != nil {
		se.fail(m.ID, wire.CodeSQL, "%v", err)
		return
	}
	se.respond(m.ID, wire.StatsResult{ID: m.ID, Text: ts.String()})
}

// ------------------------------------------------------------- ingest --

func (se *session) handleCopyBegin(m wire.CopyBegin) {
	if se.cp != nil {
		se.fail(m.ID, wire.CodeProto, "copy already in progress (table %q)", se.cp.table)
		return
	}
	if m.Table == "" || len(m.Cols) == 0 {
		se.fail(m.ID, wire.CodeProto, "copy needs a table name and at least one column")
		return
	}
	ctx, cancel, ok := se.begin(m.ID, 0)
	if !ok {
		se.fail(m.ID, wire.CodeCanceled, "request cancelled before execution")
		return
	}
	se.cp = &copyState{
		id:     m.ID,
		table:  m.Table,
		ld:     se.srv.db.NewLoader(m.Table, m.Cols...),
		ctx:    ctx,
		cancel: cancel,
		poll:   ctxpoll.New(ctx),
	}
	if se.srv.rec.Sample() {
		se.cp.sp = obs.StartSpan("copy")
		se.cp.sp.SetAttr("table", m.Table)
	}
}

// failCopy answers the copy request with an error and marks the stream
// failed; further chunks are dropped until CopyEnd clears the state.
func (se *session) failCopy(code, format string, args ...any) {
	se.fail(se.cp.id, code, format, args...)
	se.cp.failed = true
}

func (se *session) handleCopyData(m wire.CopyData) {
	cp := se.cp
	if cp == nil || m.ID != cp.id {
		se.fail(m.ID, wire.CodeProto, "copy data without a matching CopyBegin")
		return
	}
	if cp.failed {
		return
	}
	arity := cp.ld.Arity()
	cp.ld.Grow(len(m.Tuples))
	for _, t := range m.Tuples {
		if err := cp.poll.Due(); err != nil {
			se.failCopy(errCode(err), "copy aborted: %v", err)
			return
		}
		if len(t.Vals) != arity {
			se.failCopy(wire.CodeProto, "copy tuple has %d values, table %q has %d columns", len(t.Vals), cp.table, arity)
			return
		}
		cp.ld.Add(t.Vals, t.M)
		se.srv.met.copyTuples.Add(1)
	}
}

func (se *session) handleCopyEnd(m wire.CopyEnd) {
	cp := se.cp
	if cp == nil || m.ID != cp.id {
		se.fail(m.ID, wire.CodeProto, "copy end without a matching CopyBegin")
		return
	}
	se.cp = nil
	aborted := cp.ctx.Err()
	cp.cancel()
	if cp.sp != nil {
		cp.sp.SetInt("tuples", int64(cp.ld.Len()))
		switch {
		case cp.failed:
			cp.sp.SetAttr("error", "failed")
		case aborted != nil:
			cp.sp.SetAttr("error", errCode(aborted))
		}
		cp.sp.End()
		se.srv.rec.Record(cp.sp)
	}
	if cp.failed {
		return // already answered with the failure
	}
	if err := aborted; err != nil {
		se.fail(cp.id, errCode(err), "copy aborted: %v", err)
		return
	}
	cp.ld.Commit()
	se.respond(cp.id, wire.CopyOK{ID: cp.id, Rows: uint64(cp.ld.Len())})
}

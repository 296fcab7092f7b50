package wire

import (
	"fmt"

	"github.com/audb/audb/internal/core"
)

// Msg is one protocol message. Concrete messages are plain structs;
// encode appends the payload to the frame buffer and decodeMsg is the
// inverse (exact: trailing bytes are an error).
type Msg interface {
	msgType() byte
	encode(b []byte) []byte
}

// ExecOptions carries the per-query execution options across the wire,
// mirroring the session API's functional options. The zero value selects
// every default (native engine, workers per CPU, no compression, no
// deadline). Planning is not an option: rule optimization always runs,
// and the cost pass runs on the native engine unless compression is on.
type ExecOptions struct {
	// Engine is the audb.Engine (0 native, 1 rewrite, 2 sgw).
	Engine uint8
	// Workers is core.Options.Workers (0 = one per CPU, 1 = serial).
	Workers int
	// JoinCompression / AggCompression are the Section 10.4/10.5 targets.
	JoinCompression int
	AggCompression  int
	// TimeoutMS bounds execution server-side; 0 means no deadline beyond
	// the server's own cap.
	TimeoutMS uint64
}

func (o ExecOptions) encode(b []byte) []byte {
	b = append(b, o.Engine)
	b = encVarint(b, int64(o.Workers))
	b = encVarint(b, int64(o.JoinCompression))
	b = encVarint(b, int64(o.AggCompression))
	return encUvarint(b, o.TimeoutMS)
}

func (d *dec) execOptions() ExecOptions {
	return ExecOptions{
		Engine:          d.u8(),
		Workers:         int(d.varint()),
		JoinCompression: int(d.varint()),
		AggCompression:  int(d.varint()),
		TimeoutMS:       d.uvarint(),
	}
}

// ----------------------------------------------------------- session --

// Hello opens a connection.
type Hello struct {
	Version uint32
	Client  string // client name, for server logs
}

func (Hello) msgType() byte { return THello }
func (m Hello) encode(b []byte) []byte {
	b = encUvarint(b, uint64(m.Version))
	return encString(b, m.Client)
}

// HelloOK accepts a connection.
type HelloOK struct {
	Version uint32
	Server  string
	Tables  []string // registered table names at connect time, sorted
}

func (HelloOK) msgType() byte { return THelloOK }
func (m HelloOK) encode(b []byte) []byte {
	b = encUvarint(b, uint64(m.Version))
	b = encString(b, m.Server)
	return encStrings(b, m.Tables)
}

// ------------------------------------------------------------ queries --

// Query executes one SQL statement.
type Query struct {
	ID   uint64
	SQL  string
	Opts ExecOptions
}

func (Query) msgType() byte { return TQuery }
func (m Query) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.SQL)
	return m.Opts.encode(b)
}

// Result carries a query's AU-relation answer.
type Result struct {
	ID  uint64
	Rel *core.Relation
}

func (Result) msgType() byte { return TResult }
func (m Result) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encRelation(b, m.Rel)
}

// Error reports a failed request.
type Error struct {
	ID      uint64
	Code    string // one of the Code* constants
	Message string
}

func (Error) msgType() byte { return TError }
func (m Error) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.Code)
	return encString(b, m.Message)
}

// -------------------------------------------------- prepared statements --

// Prepare compiles a statement server-side.
type Prepare struct {
	ID  uint64
	SQL string
}

func (Prepare) msgType() byte { return TPrepare }
func (m Prepare) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encString(b, m.SQL)
}

// PrepareOK returns the statement handle.
type PrepareOK struct {
	ID   uint64
	Stmt uint64
}

func (PrepareOK) msgType() byte { return TPrepareOK }
func (m PrepareOK) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encUvarint(b, m.Stmt)
}

// ExecStmt executes a prepared statement.
type ExecStmt struct {
	ID   uint64
	Stmt uint64
	Opts ExecOptions
}

func (ExecStmt) msgType() byte { return TExecStmt }
func (m ExecStmt) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encUvarint(b, m.Stmt)
	return m.Opts.encode(b)
}

// CloseStmt drops a prepared statement.
type CloseStmt struct {
	ID   uint64
	Stmt uint64
}

func (CloseStmt) msgType() byte { return TCloseStmt }
func (m CloseStmt) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encUvarint(b, m.Stmt)
}

// OK is the bare success acknowledgement.
type OK struct{ ID uint64 }

func (OK) msgType() byte            { return TOK }
func (m OK) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// ------------------------------------------------------------- ingest --

// CopyBegin opens a bulk-ingest stream for one table.
type CopyBegin struct {
	ID    uint64
	Table string
	Cols  []string
}

func (CopyBegin) msgType() byte { return TCopyBegin }
func (m CopyBegin) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.Table)
	return encStrings(b, m.Cols)
}

// CopyData carries one chunk of range tuples for the open copy stream.
type CopyData struct {
	ID     uint64
	Tuples []core.Tuple
}

func (CopyData) msgType() byte { return TCopyData }
func (m CopyData) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	arity := 0
	if len(m.Tuples) > 0 {
		arity = len(m.Tuples[0].Vals)
	}
	return encTuples(b, arity, m.Tuples)
}

// CopyEnd closes the stream and registers the table.
type CopyEnd struct{ ID uint64 }

func (CopyEnd) msgType() byte            { return TCopyEnd }
func (m CopyEnd) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// CopyOK acknowledges a completed ingest.
type CopyOK struct {
	ID   uint64
	Rows uint64
}

func (CopyOK) msgType() byte { return TCopyOK }
func (m CopyOK) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encUvarint(b, m.Rows)
}

// -------------------------------------------------------- diagnostics --

// Explain requests a plan explanation; with Analyze it executes the
// query through the instrumented physical layer and returns per-operator
// counters. The answer is rendered server-side (ExplainResult.Text), the
// same text audbsh prints locally.
type Explain struct {
	ID      uint64
	SQL     string
	Opts    ExecOptions
	Analyze bool
}

func (Explain) msgType() byte { return TExplain }
func (m Explain) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.SQL)
	b = m.Opts.encode(b)
	return encBool(b, m.Analyze)
}

// ExplainResult carries the rendered explanation.
type ExplainResult struct {
	ID   uint64
	Text string
}

func (ExplainResult) msgType() byte { return TExplainResult }
func (m ExplainResult) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encString(b, m.Text)
}

// TableStats requests a table's statistics (rendered); with Analyze the
// statistics are recollected first.
type TableStats struct {
	ID      uint64
	Table   string
	Analyze bool
}

func (TableStats) msgType() byte { return TTableStats }
func (m TableStats) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.Table)
	return encBool(b, m.Analyze)
}

// StatsResult carries rendered table statistics.
type StatsResult struct {
	ID   uint64
	Text string
}

func (StatsResult) msgType() byte { return TStatsResult }
func (m StatsResult) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encString(b, m.Text)
}

// Trace requests a fully instrumented execution: the server runs the
// query through Database.Trace and answers with the rendered span tree
// (parse → optimize → cost → lower → per-operator execute), plus
// server-side spans for admission-queue wait and wire encoding.
type Trace struct {
	ID   uint64
	SQL  string
	Opts ExecOptions
}

func (Trace) msgType() byte { return TTrace }
func (m Trace) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	b = encString(b, m.SQL)
	return m.Opts.encode(b)
}

// TraceResult carries the rendered span tree.
type TraceResult struct {
	ID   uint64
	Text string
}

func (TraceResult) msgType() byte { return TTraceResult }
func (m TraceResult) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encString(b, m.Text)
}

// ServerStats requests the server's metrics snapshot (connection and
// admission counters, per-code errors, byte totals, plus the embedded
// database's registry) and its most recent sampled request traces.
type ServerStats struct{ ID uint64 }

func (ServerStats) msgType() byte            { return TServerStats }
func (m ServerStats) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// ServerStatsResult carries the rendered server statistics.
type ServerStatsResult struct {
	ID   uint64
	Text string
}

func (ServerStatsResult) msgType() byte { return TServerStatsResult }
func (m ServerStatsResult) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encString(b, m.Text)
}

// ------------------------------------------------------------ control --

// Cancel aborts the in-flight or queued request with the same ID. It is
// fire-and-forget: the cancelled request answers with Error(CodeCanceled).
type Cancel struct{ ID uint64 }

func (Cancel) msgType() byte            { return TCancel }
func (m Cancel) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// Ping checks liveness.
type Ping struct{ ID uint64 }

func (Ping) msgType() byte            { return TPing }
func (m Ping) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// Pong answers Ping.
type Pong struct{ ID uint64 }

func (Pong) msgType() byte            { return TPong }
func (m Pong) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// ListTables requests the current table names.
type ListTables struct{ ID uint64 }

func (ListTables) msgType() byte            { return TListTables }
func (m ListTables) encode(b []byte) []byte { return encUvarint(b, m.ID) }

// Tables answers ListTables with the sorted table names.
type Tables struct {
	ID    uint64
	Names []string
}

func (Tables) msgType() byte { return TTables }
func (m Tables) encode(b []byte) []byte {
	b = encUvarint(b, m.ID)
	return encStrings(b, m.Names)
}

// ----------------------------------------------------------- decoding --

// decodeMsg decodes one frame payload.
func decodeMsg(t byte, payload []byte) (Msg, error) {
	d := &dec{b: payload}
	var m Msg
	switch t {
	case THello:
		m = Hello{Version: uint32(d.uvarint()), Client: d.string()}
	case THelloOK:
		m = HelloOK{Version: uint32(d.uvarint()), Server: d.string(), Tables: d.strings()}
	case TQuery:
		m = Query{ID: d.uvarint(), SQL: d.string(), Opts: d.execOptions()}
	case TResult:
		m = Result{ID: d.uvarint(), Rel: d.relation()}
	case TError:
		m = Error{ID: d.uvarint(), Code: d.string(), Message: d.string()}
	case TPrepare:
		m = Prepare{ID: d.uvarint(), SQL: d.string()}
	case TPrepareOK:
		m = PrepareOK{ID: d.uvarint(), Stmt: d.uvarint()}
	case TExecStmt:
		m = ExecStmt{ID: d.uvarint(), Stmt: d.uvarint(), Opts: d.execOptions()}
	case TCloseStmt:
		m = CloseStmt{ID: d.uvarint(), Stmt: d.uvarint()}
	case TOK:
		m = OK{ID: d.uvarint()}
	case TCopyBegin:
		m = CopyBegin{ID: d.uvarint(), Table: d.string(), Cols: d.strings()}
	case TCopyData:
		m = CopyData{ID: d.uvarint(), Tuples: d.tuples()}
	case TCopyEnd:
		m = CopyEnd{ID: d.uvarint()}
	case TCopyOK:
		m = CopyOK{ID: d.uvarint(), Rows: d.uvarint()}
	case TExplain:
		m = Explain{ID: d.uvarint(), SQL: d.string(), Opts: d.execOptions(), Analyze: d.bool()}
	case TExplainResult:
		m = ExplainResult{ID: d.uvarint(), Text: d.string()}
	case TTableStats:
		m = TableStats{ID: d.uvarint(), Table: d.string(), Analyze: d.bool()}
	case TStatsResult:
		m = StatsResult{ID: d.uvarint(), Text: d.string()}
	case TTrace:
		m = Trace{ID: d.uvarint(), SQL: d.string(), Opts: d.execOptions()}
	case TTraceResult:
		m = TraceResult{ID: d.uvarint(), Text: d.string()}
	case TServerStats:
		m = ServerStats{ID: d.uvarint()}
	case TServerStatsResult:
		m = ServerStatsResult{ID: d.uvarint(), Text: d.string()}
	case TCancel:
		m = Cancel{ID: d.uvarint()}
	case TPing:
		m = Ping{ID: d.uvarint()}
	case TPong:
		m = Pong{ID: d.uvarint()}
	case TListTables:
		m = ListTables{ID: d.uvarint()}
	case TTables:
		m = Tables{ID: d.uvarint(), Names: d.strings()}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
	if err := d.finish(TypeName(t)); err != nil {
		return nil, err
	}
	return m, nil
}

// ResponseID extracts the request ID a server->client message answers.
// It reports false for messages that are not responses (Hello, requests).
func ResponseID(m Msg) (uint64, bool) {
	switch m := m.(type) {
	case Result:
		return m.ID, true
	case Error:
		return m.ID, true
	case PrepareOK:
		return m.ID, true
	case OK:
		return m.ID, true
	case CopyOK:
		return m.ID, true
	case ExplainResult:
		return m.ID, true
	case StatsResult:
		return m.ID, true
	case TraceResult:
		return m.ID, true
	case ServerStatsResult:
		return m.ID, true
	case Pong:
		return m.ID, true
	case Tables:
		return m.ID, true
	}
	return 0, false
}

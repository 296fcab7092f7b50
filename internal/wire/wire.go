// Package wire implements the AU-DB client/server protocol: a simple
// length-prefixed binary framing with a compact encoding for range
// tuples. It is the shared language of cmd/audbd (the server), the
// public client package, and audbsh's remote mode.
//
// # Frame layout
//
// Every message travels in one frame:
//
//	+------+----------------------+---------------------+
//	| type | payload length (u32) | payload (length B)  |
//	| 1 B  | big endian           |                     |
//	+------+----------------------+---------------------+
//
// The type byte identifies the message (see the T* constants); the
// payload is the message's own encoding (enc.go primitives: varints,
// length-prefixed strings, tagged values). A reader enforces a maximum
// payload length (DefaultMaxFrame unless configured) so a corrupt or
// hostile peer cannot make it allocate unboundedly.
//
// # Conversation
//
// The client opens with Hello and the server answers HelloOK (version
// negotiation is equality on Version today). After that the client sends
// requests, each carrying a client-chosen request ID, and the server
// answers every request with exactly one terminal response frame bearing
// the same ID — Result, PrepareOK, OK, CopyOK, ExplainResult,
// StatsResult, Tables, Pong or Error — except Cancel, which is
// fire-and-forget: it makes the in-flight request with that ID fail
// promptly with an Error frame of code CodeCanceled. COPY ingest is the
// one multi-frame request: CopyBegin, any number of CopyData frames,
// then CopyEnd, answered by a single CopyOK (or Error).
//
// Requests on one connection execute in order, one at a time; the
// server's read loop stays responsive while a query runs, which is what
// makes Cancel (and abrupt disconnect) abort server-side work in
// milliseconds.
//
// # Range tuples on the wire
//
// Attribute values are range triples [lb/sg/ub] and every tuple carries
// an (lb, sg, ub) multiplicity. The encoding spends one tag byte to
// collapse the common certain cases (see encRangeVal/encMult): a certain
// attribute costs 1 tag + 1 value, a fully unknown one 1 tag + 1 value,
// and only a genuine range pays for three values; a (1,1,1)
// multiplicity costs two bytes total.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version spoken by this package. Hello carries
// it; the server rejects mismatched clients with CodeProto. Version 2
// dropped ExecOptions' executor-mode flag; version 3 dropped its
// optimizer and cost-model flags.
const Version = 3

// DefaultMaxFrame is the payload-size cap a Reader enforces unless
// configured otherwise: large enough for a hefty result relation, small
// enough to bound a single allocation.
const DefaultMaxFrame = 64 << 20

// Message type bytes. The zero value is invalid on purpose: a zeroed
// frame header fails decoding instead of aliasing a real message.
const (
	TInvalid byte = iota

	// Session setup.
	THello   // client -> server: version, client name
	THelloOK // server -> client: version, server name, table names

	// Query execution.
	TQuery  // client -> server: SQL + options
	TResult // server -> client: an AU-relation

	// Prepared statements.
	TPrepare   // client -> server: SQL
	TPrepareOK // server -> client: statement handle
	TExecStmt  // client -> server: statement handle + options
	TCloseStmt // client -> server: statement handle

	// Bulk ingest (COPY).
	TCopyBegin // client -> server: table name, columns
	TCopyData  // client -> server: a chunk of range tuples
	TCopyEnd   // client -> server: finish + register
	TCopyOK    // server -> client: rows ingested

	// Plan diagnostics.
	TExplain       // client -> server: SQL + options (+ analyze flag)
	TExplainResult // server -> client: rendered text
	TTableStats    // client -> server: table name (+ analyze flag)
	TStatsResult   // server -> client: rendered statistics

	// Control.
	TCancel     // client -> server: abort the in-flight request with this ID
	TPing       // client -> server
	TPong       // server -> client
	TListTables // client -> server
	TTables     // server -> client: table names
	TOK         // server -> client: bare acknowledgement
	TError      // server -> client: request failed

	// Observability (appended so earlier type bytes stay stable).
	TTrace             // client -> server: SQL + options, run with lifecycle tracing
	TTraceResult       // server -> client: rendered span tree
	TServerStats       // client -> server: request a server metrics snapshot
	TServerStatsResult // server -> client: rendered snapshot
)

// typeNames renders type bytes for diagnostics.
var typeNames = map[byte]string{
	THello: "Hello", THelloOK: "HelloOK",
	TQuery: "Query", TResult: "Result",
	TPrepare: "Prepare", TPrepareOK: "PrepareOK",
	TExecStmt: "ExecStmt", TCloseStmt: "CloseStmt",
	TCopyBegin: "CopyBegin", TCopyData: "CopyData", TCopyEnd: "CopyEnd", TCopyOK: "CopyOK",
	TExplain: "Explain", TExplainResult: "ExplainResult",
	TTableStats: "TableStats", TStatsResult: "StatsResult",
	TCancel: "Cancel", TPing: "Ping", TPong: "Pong",
	TListTables: "ListTables", TTables: "Tables",
	TOK: "OK", TError: "Error",
	TTrace: "Trace", TTraceResult: "TraceResult",
	TServerStats: "ServerStats", TServerStatsResult: "ServerStatsResult",
}

// Type reports a message's type byte (for diagnostics outside the
// package; encoding uses it internally).
func Type(m Msg) byte { return m.msgType() }

// TypeName names a message type byte for diagnostics.
func TypeName(t byte) string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", t)
}

// Error codes carried by the Error message. Codes are short stable
// strings (not numbers) so logs and tests read directly.
const (
	CodeProto        = "proto"         // protocol violation (bad frame, bad handshake)
	CodeSQL          = "sql"           // compile/plan/execution error
	CodeCanceled     = "canceled"      // cancelled via Cancel frame or client disconnect
	CodeDeadline     = "deadline"      // per-query deadline exceeded
	CodeQueueTimeout = "queue_timeout" // admission queue wait exceeded the limit
	CodeShutdown     = "shutdown"      // server is draining; no new work accepted
	CodeUnknownStmt  = "unknown_stmt"  // ExecStmt/CloseStmt with a stale handle
	CodeInternal     = "internal"      // anything else
)

// ErrFrameTooLarge is returned by a Reader when a frame header announces
// a payload larger than the configured maximum.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// frameHeaderLen is the fixed frame header: type byte + u32 length.
const frameHeaderLen = 5

// ByteCounter observes wire traffic volume; obs.Counter satisfies it.
// Kept as a local interface so the protocol package stays dependency-
// free of the observability layer.
type ByteCounter interface {
	Add(n int64)
}

// Writer frames and writes messages. It buffers nothing beyond the
// frame being written; callers own any locking (the client serializes
// writers, the server writes responses from one goroutine).
type Writer struct {
	w   io.Writer
	buf []byte // reused header+payload assembly buffer
	bc  ByteCounter
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// SetByteCounter counts every written frame's bytes (header included)
// into bc. The server points this at its bytes-out counter.
func (w *Writer) SetByteCounter(bc ByteCounter) { w.bc = bc }

// Write encodes m into one frame and writes it.
func (w *Writer) Write(m Msg) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, m.msgType(), 0, 0, 0, 0)
	w.buf = m.encode(w.buf)
	payload := len(w.buf) - frameHeaderLen
	if payload > DefaultMaxFrame {
		return fmt.Errorf("%w: encoding %s (%d bytes)", ErrFrameTooLarge, TypeName(m.msgType()), payload)
	}
	binary.BigEndian.PutUint32(w.buf[1:frameHeaderLen], uint32(payload))
	_, err := w.w.Write(w.buf)
	if err == nil && w.bc != nil {
		w.bc.Add(int64(len(w.buf)))
	}
	return err
}

// Reader reads and decodes frames.
type Reader struct {
	r        io.Reader
	maxFrame int
	hdr      [frameHeaderLen]byte
	bc       ByteCounter
}

// NewReader returns a Reader with the default frame-size cap.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, maxFrame: DefaultMaxFrame} }

// SetMaxFrame overrides the payload-size cap (advanced use; tests).
func (r *Reader) SetMaxFrame(n int) { r.maxFrame = n }

// SetByteCounter counts every read frame's bytes (header included)
// into bc. The server points this at its bytes-in counter.
func (r *Reader) SetByteCounter(bc ByteCounter) { r.bc = bc }

// Read reads one frame and decodes its message. io.EOF is returned
// untouched on a clean close between frames; a partial frame surfaces
// io.ErrUnexpectedEOF.
func (r *Reader) Read() (Msg, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(r.hdr[1:]))
	if n > r.maxFrame {
		return nil, fmt.Errorf("%w: %s announces %d bytes (max %d)",
			ErrFrameTooLarge, TypeName(r.hdr[0]), n, r.maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if r.bc != nil {
		r.bc.Add(int64(frameHeaderLen + n))
	}
	return decodeMsg(r.hdr[0], payload)
}

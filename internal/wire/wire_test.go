package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// testRelation covers every value kind, every range-value shape and both
// multiplicity shapes.
func testRelation() *core.Relation {
	r := core.New(schema.New("a", "b", "c"))
	r.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.Certain(types.Int(42)),
			rangeval.Certain(types.String("hello, world")),
			rangeval.Certain(types.Bool(true)),
		},
		M: core.Mult{Lo: 1, SG: 1, Hi: 1},
	})
	r.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.New(types.Int(-5), types.Int(0), types.Int(7)),
			rangeval.Full(types.Null()),
			rangeval.New(types.Float(1.5), types.Float(2.25), types.Float(math.MaxFloat64)),
		},
		M: core.Mult{Lo: 0, SG: 1, Hi: 3},
	})
	r.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.New(types.NegInf(), types.Int(9), types.Int(9)),
			rangeval.New(types.String(""), types.String("x"), types.PosInf()),
			rangeval.Certain(types.Float(-0.125)),
		},
		M: core.Mult{Lo: 2, SG: 2, Hi: 2},
	})
	r.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.Certain(types.Null()),
			rangeval.New(types.Bool(false), types.Bool(false), types.Bool(true)),
			rangeval.Full(types.String("sg")),
		},
		M: core.Mult{Lo: 0, SG: 0, Hi: 5},
	})
	return r
}

// allMessages is one instance of every message type, with every field
// populated (round-trip equality is reflect.DeepEqual).
func allMessages() []Msg {
	rel := testRelation()
	opts := ExecOptions{
		Engine:          2,
		Workers:         4,
		JoinCompression: 16,
		AggCompression:  8,
		TimeoutMS:       1500,
	}
	return []Msg{
		Hello{Version: Version, Client: "test-client"},
		HelloOK{Version: Version, Server: "audbd/test", Tables: []string{"r", "s"}},
		Query{ID: 1, SQL: "SELECT a FROM r", Opts: opts},
		Query{ID: 2, SQL: "SELECT * FROM r"}, // zero options
		Result{ID: 3, Rel: rel},
		Result{ID: 4, Rel: core.New(schema.New())}, // empty schema, no tuples
		Error{ID: 5, Code: CodeSQL, Message: "unknown table \"nope\""},
		Prepare{ID: 6, SQL: "SELECT b FROM r WHERE a < 3"},
		PrepareOK{ID: 7, Stmt: 99},
		ExecStmt{ID: 8, Stmt: 99, Opts: opts},
		CloseStmt{ID: 9, Stmt: 99},
		OK{ID: 10},
		CopyBegin{ID: 11, Table: "t", Cols: []string{"x", "y", "z"}},
		CopyData{ID: 12, Tuples: rel.Tuples},
		CopyData{ID: 13}, // empty chunk
		CopyEnd{ID: 14},
		CopyOK{ID: 15, Rows: 12345},
		Explain{ID: 16, SQL: "SELECT a FROM r", Opts: opts, Analyze: true},
		ExplainResult{ID: 17, Text: "Scan(r)\n"},
		TableStats{ID: 18, Table: "r", Analyze: true},
		StatsResult{ID: 19, Text: "rows: 4\n"},
		Trace{ID: 25, SQL: "SELECT a FROM r", Opts: opts},
		TraceResult{ID: 26, Text: "query 1ms\n  parse 10µs\n"},
		ServerStats{ID: 27},
		ServerStatsResult{ID: 28, Text: "audbd_requests_total 3\n"},
		Cancel{ID: 20},
		Ping{ID: 21},
		Pong{ID: 22},
		ListTables{ID: 23},
		Tables{ID: 24, Names: []string{"a", "b"}},
	}
}

// TestRoundTripAllMessages: encode -> frame -> decode must reproduce
// every message exactly.
func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(m); err != nil {
			t.Fatalf("%s: write: %v", TypeName(m.msgType()), err)
		}
		got, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatalf("%s: read: %v", TypeName(m.msgType()), err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Errorf("%s: round trip mismatch:\n in: %#v\nout: %#v", TypeName(m.msgType()), m, got)
		}
	}
}

// normalize maps nil and empty slices/relations to a comparable shape:
// the wire cannot distinguish nil from empty, and does not need to. A
// relation is compared by its dense rows, whatever its storage layout.
func normalize(m Msg) Msg {
	switch m := m.(type) {
	case HelloOK:
		m.Tables = orEmpty(m.Tables)
		return m
	case CopyBegin:
		m.Cols = orEmpty(m.Cols)
		return m
	case CopyData:
		if len(m.Tuples) == 0 {
			m.Tuples = nil
		}
		return m
	case Tables:
		m.Names = orEmpty(m.Names)
		return m
	case Result:
		if m.Rel != nil {
			// The decoder stores a non-empty result columnar; compare
			// the rows, not the layout.
			rel := *m.Rel.Dense()
			if len(rel.Tuples) == 0 {
				rel.Tuples = nil
			}
			if len(rel.Schema.Attrs) == 0 {
				rel.Schema.Attrs = nil
			}
			m.Rel = &rel
		}
		return m
	}
	return m
}

func orEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

// TestRelationRoundTripExact: the relation encoding must reproduce the
// bit-identical relation (same String rendering AND same rows — the
// decoder may pick the sparse storage representation, so rows are
// compared through the dense view).
func TestRelationRoundTripExact(t *testing.T) {
	rel := testRelation()
	b := encRelation(nil, rel)
	d := &dec{b: b}
	got := d.relation()
	if err := d.finish("relation"); err != nil {
		t.Fatal(err)
	}
	dense := got.Dense()
	if !reflect.DeepEqual(rel.Schema, dense.Schema) || !reflect.DeepEqual(rel.Tuples, dense.Tuples) {
		t.Fatalf("relation round trip mismatch:\n in: %v\nout: %v", rel, dense)
	}
	if rel.String() != got.String() {
		t.Fatalf("rendering differs:\n%s\nvs\n%s", rel, got)
	}
}

// TestCompactEncoding: certain values and multiplicities must pay the
// compact representation, not three full values.
func TestCompactEncoding(t *testing.T) {
	enc := func(v rangeval.V) []byte { return encRangeVal(nil, &v) }
	certain := enc(rangeval.Certain(types.Int(7)))
	ranged := enc(rangeval.New(types.Int(1), types.Int(2), types.Int(3)))
	if len(certain) >= len(ranged) {
		t.Errorf("certain value (%dB) should encode smaller than a range (%dB)", len(certain), len(ranged))
	}
	if want := 3; len(certain) != want { // tag + kind + varint
		t.Errorf("certain int = %dB, want %d", len(certain), want)
	}
	if m := encMult(nil, core.Mult{Lo: 1, SG: 1, Hi: 1}); len(m) != 2 { // tag + varint
		t.Errorf("certain mult = %dB, want 2", len(m))
	}
	full := enc(rangeval.Full(types.Int(5)))
	if len(full) != 3 { // tag + kind + varint; the infinities are implicit
		t.Errorf("full range = %dB, want 3", len(full))
	}
}

// TestValueKindsRoundTrip: every kind of domain value survives, bit for
// bit (Same).
func TestValueKindsRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(), types.Bool(true), types.Bool(false),
		types.Int(0), types.Int(-1), types.Int(math.MaxInt64), types.Int(math.MinInt64),
		types.Float(0), types.Float(-1.5), types.Float(math.Inf(1)), types.Float(math.SmallestNonzeroFloat64),
		// Float edge cases: the bits, not just the order, survive.
		types.Float(math.Copysign(0, -1)), types.Float(math.NaN()),
		types.Float(math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)),
		types.Float(math.Inf(-1)), types.Float(math.MaxFloat64),
		types.String(""), types.String("héllo\x00world"),
		types.NegInf(), types.PosInf(),
	}
	for _, v := range vals {
		b := encValue(nil, v)
		d := &dec{b: b}
		got := d.value()
		if err := d.finish("value"); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !types.Same(got, v) {
			t.Errorf("value round trip: in %#v out %#v", v, got)
		}
	}
}

// TestDecodeErrors: corrupt payloads fail cleanly, never panic.
func TestDecodeErrors(t *testing.T) {
	// Unknown type byte.
	if _, err := decodeMsg(200, nil); err == nil {
		t.Error("unknown type should error")
	}
	// Truncations of every valid message at every length must error or
	// decode without panicking (self-delimiting prefixes may succeed).
	for _, m := range allMessages() {
		full := m.encode(nil)
		for i := 0; i < len(full); i++ {
			decodeMsg(m.msgType(), full[:i]) // must not panic
		}
		// Trailing garbage is always an error.
		if _, err := decodeMsg(m.msgType(), append(append([]byte{}, full...), 0xfe)); err == nil {
			t.Errorf("%s: trailing bytes accepted", TypeName(m.msgType()))
		}
	}
	// Out-of-order range bounds are rejected at decode time.
	bad := append([]byte{rvRange}, encValue(nil, types.Int(9))...)
	bad = append(bad, encValue(nil, types.Int(0))...)
	bad = append(bad, encValue(nil, types.Int(1))...)
	d := &dec{b: bad}
	d.rangeVal(new(rangeval.V))
	if d.err == nil {
		t.Error("out-of-order bounds accepted")
	}
	// Invalid multiplicity triples are rejected.
	badM := []byte{multTriple}
	badM = encVarint(badM, 5)
	badM = encVarint(badM, 1)
	badM = encVarint(badM, 2)
	d = &dec{b: badM}
	d.mult()
	if d.err == nil {
		t.Error("invalid multiplicity accepted")
	}
}

// TestFrameSizeCap: a frame announcing more than the cap is refused
// before allocating.
func TestFrameSizeCap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(StatsResult{ID: 1, Text: string(make([]byte, 4096))}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.SetMaxFrame(128)
	if _, err := r.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestPartialFrame: a frame cut mid-payload surfaces ErrUnexpectedEOF;
// a clean close between frames is io.EOF.
func TestPartialFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(Ping{ID: 7}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := NewReader(bytes.NewReader(full[:len(full)-1])).Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("partial payload: want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader(full[:2])).Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("partial header: want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)).Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: want EOF, got %v", err)
	}
}

// TestStreamedMessages: several frames back to back decode in order.
func TestStreamedMessages(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msgs := allMessages()
	for _, m := range msgs {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.msgType() != want.msgType() {
			t.Fatalf("message %d: got %s want %s", i, TypeName(got.msgType()), TypeName(want.msgType()))
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream: want EOF, got %v", err)
	}
}

// TestByteCounters: reader and writer count whole frames (header
// included) so the server's bytes_in/bytes_out totals match what
// crossed the socket.
func TestByteCounters(t *testing.T) {
	var in, out testCounter
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetByteCounter(&out)
	if err := w.Write(Ping{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(StatsResult{ID: 2, Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	wrote := int64(buf.Len())
	if int64(out) != wrote {
		t.Fatalf("writer counted %d bytes, wire carried %d", out, wrote)
	}
	r := NewReader(&buf)
	r.SetByteCounter(&in)
	for i := 0; i < 2; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if int64(in) != wrote {
		t.Fatalf("reader counted %d bytes, wire carried %d", in, wrote)
	}
}

type testCounter int64

func (c *testCounter) Add(n int64) { *c += testCounter(n) }

// TestAppendRelation: the exported sizing helper produces exactly the
// bytes Result's encoding embeds.
func TestAppendRelation(t *testing.T) {
	rel := testRelation()
	if got, want := AppendRelation(nil, rel), encRelation(nil, rel); !bytes.Equal(got, want) {
		t.Fatalf("AppendRelation differs from the internal encoding")
	}
}

// TestResponseID: every server->client response exposes its request ID;
// requests and Hello do not.
func TestResponseID(t *testing.T) {
	responses := map[byte]bool{
		TResult: true, TError: true, TPrepareOK: true, TOK: true, TCopyOK: true,
		TExplainResult: true, TStatsResult: true, TPong: true, TTables: true,
		TTraceResult: true, TServerStatsResult: true,
	}
	for _, m := range allMessages() {
		id, ok := ResponseID(m)
		if want := responses[m.msgType()]; ok != want {
			t.Errorf("%s: ResponseID ok=%v want %v", TypeName(m.msgType()), ok, want)
		} else if ok && id == 0 {
			t.Errorf("%s: ResponseID lost the ID", TypeName(m.msgType()))
		}
	}
}

// numericRelation is n rows of three certain numeric columns, the shape
// of a scan's result.
func numericRelation(n int) *core.Relation {
	r := core.New(schema.New("k", "net", "qty"))
	for i := range n {
		r.Add(core.Tuple{Vals: rangeval.Tuple{
			rangeval.Certain(types.Int(int64(i))),
			rangeval.Certain(types.Float(float64(i) * 1.37)),
			rangeval.Certain(types.Int(int64(26 + i%25))),
		}, M: core.One})
	}
	return r
}

// TestDecodeResultAllocatesPerFrame: reading a numeric Result allocates a
// count that does not grow with its rows. Every row is decoded into one
// scratch row that the builder copies, so 1,000 and 4,000 rows allocate
// the same. The frames are encoded outside the measured region.
func TestDecodeResultAllocatesPerFrame(t *testing.T) {
	allocs := func(n int) uint64 {
		var frame bytes.Buffer
		if err := NewWriter(&frame).Write(Result{ID: 1, Rel: numericRelation(n)}); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := NewReader(bytes.NewReader(frame.Bytes())).Read()
			runtime.ReadMemStats(&after)
			if err != nil || m.(Result).Rel.Len() != n {
				t.Fatalf("decode of %d rows: %v", n, err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	if a, b := allocs(1000), allocs(4000); a != b {
		t.Errorf("decoding 1,000 and 4,000 rows allocated %d and %d objects", a, b)
	}
}

// TestCopyDataArena: a CopyData chunk's tuples share one arena but are
// capped, so appending to one tuple's values never writes into the next.
func TestCopyDataArena(t *testing.T) {
	rel := numericRelation(3)
	m, err := decodeMsg(TCopyData, CopyData{ID: 7, Tuples: rel.Tuples}.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(CopyData).Tuples
	if !reflect.DeepEqual(got, rel.Tuples) {
		t.Fatalf("copy data round trip:\n in: %v\nout: %v", rel.Tuples, got)
	}
	_ = append(got[0].Vals, rangeval.Certain(types.Int(-1)))
	if !reflect.DeepEqual(got[1], rel.Tuples[1]) {
		t.Fatalf("appending to row 0 changed row 1: %v", got[1])
	}
}

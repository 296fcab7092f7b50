package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// Encoding primitives. Encoders append to a caller-owned []byte (the
// Writer's frame buffer); the decoder is a cursor with a sticky error so
// message decoders read fields linearly and check once at the end.

// ---------------------------------------------------------- encoders --

func encBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func encUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func encVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func encString(b []byte, s string) []byte {
	b = encUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func encStrings(b []byte, ss []string) []byte {
	b = encUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = encString(b, s)
	}
	return b
}

// encValue writes one domain value: a kind byte plus the payload the
// kind needs (null and the infinity sentinels are the kind byte alone).
func encValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindBool:
		b = encBool(b, v.AsBool())
	case types.KindInt:
		b = encVarint(b, v.AsInt())
	case types.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case types.KindString:
		b = encString(b, v.AsString())
	}
	return b
}

// Range-value tags: the common shapes collapse to a single stored value.
const (
	rvCertain byte = iota // [v/v/v]: one value
	rvFull                // [-inf/sg/+inf]: one value
	rvRange               // general triple: three values
)

// encRangeVal writes one range-annotated value compactly, reading it in
// place.
func encRangeVal(b []byte, v *rangeval.V) []byte {
	switch {
	case v.IsCertain():
		b = append(b, rvCertain)
		return encValue(b, v.SG)
	case v.Lo.Kind() == types.KindNegInf && v.Hi.Kind() == types.KindPosInf:
		b = append(b, rvFull)
		return encValue(b, v.SG)
	default:
		b = append(b, rvRange)
		b = encValue(b, v.Lo)
		b = encValue(b, v.SG)
		return encValue(b, v.Hi)
	}
}

// Multiplicity tags.
const (
	multCertain byte = iota // (n,n,n): one varint
	multTriple              // general: three varints
)

// encMult writes a multiplicity triple compactly.
func encMult(b []byte, m core.Mult) []byte {
	if m.Lo == m.SG && m.SG == m.Hi {
		b = append(b, multCertain)
		return encVarint(b, m.SG)
	}
	b = append(b, multTriple)
	b = encVarint(b, m.Lo)
	b = encVarint(b, m.SG)
	return encVarint(b, m.Hi)
}

// encTuple writes one AU-tuple (values then multiplicity). The arity is
// carried by the surrounding message, not repeated per tuple.
func encTuple(b []byte, t *core.Tuple) []byte {
	for i := range t.Vals {
		b = encRangeVal(b, &t.Vals[i])
	}
	return encMult(b, t.M)
}

// encTuples writes a counted tuple chunk prefixed with its arity.
func encTuples(b []byte, arity int, ts []core.Tuple) []byte {
	b = encUvarint(b, uint64(arity))
	b = encUvarint(b, uint64(len(ts)))
	for i := range ts {
		b = encTuple(b, &ts[i])
	}
	return b
}

// AppendRelation appends the wire encoding of a relation to b and
// returns the extended slice. It exists so the server can measure a
// result's encoded size (the wire-encode span of a traced query)
// without sending it.
func AppendRelation(b []byte, r *core.Relation) []byte {
	return encRelation(b, r)
}

// encRelation writes a whole AU-relation: schema then tuples. Both
// storage representations encode identically (EachTuple yields the same
// rows either way; every value is copied into the buffer immediately).
func encRelation(b []byte, r *core.Relation) []byte {
	b = encStrings(b, r.Schema.Attrs)
	b = encUvarint(b, uint64(r.Len()))
	_ = r.EachTuple(func(t core.Tuple) error {
		b = encTuple(b, &t)
		return nil
	})
	return b
}

// ---------------------------------------------------------- decoder --

// dec is a decoding cursor with a sticky error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and sanity-bounds it against the
// remaining payload (each element costs at least min bytes), so a corrupt
// length cannot drive a huge allocation.
func (d *dec) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)-d.off)/uint64(min)+1 {
		d.fail("implausible count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

func (d *dec) string() string {
	n := d.count(1)
	b := d.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *dec) strings() []string {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

func (d *dec) value() types.Value {
	switch k := types.Kind(d.u8()); k {
	case types.KindNull:
		return types.Null()
	case types.KindBool:
		return types.Bool(d.bool())
	case types.KindInt:
		return types.Int(d.varint())
	case types.KindFloat:
		b := d.bytes(8)
		if b == nil {
			return types.Null()
		}
		return types.Float(math.Float64frombits(binary.BigEndian.Uint64(b)))
	case types.KindString:
		return types.String(d.string())
	case types.KindNegInf:
		return types.NegInf()
	case types.KindPosInf:
		return types.PosInf()
	default:
		d.fail("unknown value kind %d", k)
		return types.Null()
	}
}

// rangeVal decodes one range-annotated value into dst; on an error dst
// is the zero value.
func (d *dec) rangeVal(dst *rangeval.V) {
	switch tag := d.u8(); tag {
	case rvCertain:
		*dst = rangeval.Certain(d.value())
	case rvFull:
		*dst = rangeval.Full(d.value())
	case rvRange:
		lo, sg, hi := d.value(), d.value(), d.value()
		if d.err != nil {
			*dst = rangeval.V{}
			return
		}
		var err error
		if *dst, err = rangeval.Checked(lo, sg, hi); err != nil {
			d.fail("%v", err)
		}
	default:
		d.fail("unknown range-value tag %d", tag)
		*dst = rangeval.V{}
	}
}

func (d *dec) mult() core.Mult {
	switch tag := d.u8(); tag {
	case multCertain:
		n := d.varint()
		return core.Mult{Lo: n, SG: n, Hi: n}
	case multTriple:
		m := core.Mult{Lo: d.varint(), SG: d.varint(), Hi: d.varint()}
		if d.err == nil && !m.Valid() {
			d.fail("invalid multiplicity triple (%d,%d,%d)", m.Lo, m.SG, m.Hi)
		}
		return m
	default:
		d.fail("unknown multiplicity tag %d", tag)
		return core.Mult{}
	}
}

// tuple decodes one AU-tuple into vals, whose length is the arity, and
// returns the tuple over them.
func (d *dec) tuple(vals rangeval.Tuple) core.Tuple {
	for i := range vals {
		d.rangeVal(&vals[i])
	}
	return core.Tuple{Vals: vals, M: d.mult()}
}

// tuples reads a counted tuple chunk (arity prefix included). Every
// tuple's values are a capped slice of one arena, so a chunk costs two
// allocations however many rows it holds.
func (d *dec) tuples() []core.Tuple {
	arity := d.count(1)
	n := d.count(2) // a tuple is at least a mult tag + varint... but arity 0 tuples are just that
	if d.err != nil {
		return nil
	}
	// A value is at least a range tag and a kind byte, so a corrupt arity
	// and count cannot drive a huge arena.
	if uint64(n)*uint64(2*arity+2) > uint64(len(d.b)-d.off) {
		d.fail("implausible count %d of arity %d at offset %d", n, arity, d.off)
		return nil
	}
	arena := make(rangeval.Tuple, n*arity)
	out := make([]core.Tuple, n)
	for i := range out {
		out[i] = d.tuple(arena[i*arity : (i+1)*arity : (i+1)*arity])
		if d.err != nil {
			return nil
		}
	}
	return out
}

// relation decodes an AU-relation straight into the columnar layout
// catalog registration uses: the rows stream through a RelationBuilder,
// so the result never holds dense triples. Every row is decoded into one
// scratch row, which the builder copies value by value.
func (d *dec) relation() *core.Relation {
	attrs := d.strings()
	n := d.count(2)
	if d.err != nil {
		return nil
	}
	b := core.NewRelationBuilder(schema.New(attrs...), n)
	row := make(rangeval.Tuple, len(attrs))
	for i := 0; i < n; i++ {
		t := d.tuple(row)
		if d.err != nil {
			return nil
		}
		b.Add(t)
	}
	return b.Finish()
}

// finish fails on trailing bytes, so every decoder is exact.
func (d *dec) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %s: %d trailing bytes", what, len(d.b)-d.off)
	}
	return nil
}

// Package rangeval implements the range-annotated domain D_I of the paper
// (Definition 6): triples [lb/sg/ub] of domain values with lb <= sg <= ub
// under the total order of the universal domain. A range value encodes a
// selected-guess value together with bounds on the value across all possible
// worlds.
package rangeval

import (
	"fmt"

	"github.com/audb/audb/internal/types"
)

// V is a range-annotated value [Lo/SG/Hi] with Lo <= SG <= Hi.
type V struct {
	Lo, SG, Hi types.Value
}

// Certain returns the range value [v/v/v].
func Certain(v types.Value) V { return V{Lo: v, SG: v, Hi: v} }

// New returns [lo/sg/hi], normalizing the bounds so that the invariant
// lo <= sg <= hi holds (widening as needed).
func New(lo, sg, hi types.Value) V {
	if types.Less(sg, lo) {
		lo = sg
	}
	if types.Less(hi, sg) {
		hi = sg
	}
	return V{Lo: lo, SG: sg, Hi: hi}
}

// Checked returns [lo/sg/hi] and an error if the bounds are out of order.
func Checked(lo, sg, hi types.Value) (V, error) {
	if types.Less(sg, lo) || types.Less(hi, sg) {
		return V{}, fmt.Errorf("rangeval: bounds out of order: [%v/%v/%v]", lo, sg, hi)
	}
	return V{Lo: lo, SG: sg, Hi: hi}, nil
}

// Full returns the maximally uncertain range around the selected guess sg:
// [-inf/sg/+inf].
func Full(sg types.Value) V {
	return V{Lo: types.NegInf(), SG: sg, Hi: types.PosInf()}
}

// Bool range constants used by condition evaluation.
var (
	CertTrue   = Certain(types.Bool(true))                                 // [T/T/T]
	CertFalse  = Certain(types.Bool(false))                                // [F/F/F]
	MaybeTrue  = V{types.Bool(false), types.Bool(true), types.Bool(true)}  // [F/T/T]
	MaybeFalse = V{types.Bool(false), types.Bool(false), types.Bool(true)} // [F/F/T]
)

// IsCertain reports whether lo = sg = hi, i.e. the value is the same in
// every possible world. It reads v in place.
func (v *V) IsCertain() bool {
	return types.Equal(v.Lo, v.SG) && types.Equal(v.SG, v.Hi)
}

// Valid reports whether the invariant lo <= sg <= hi holds.
func (v V) Valid() bool {
	return !types.Less(v.SG, v.Lo) && !types.Less(v.Hi, v.SG)
}

// Contains reports whether the deterministic value x lies within [lo, hi].
func (v V) Contains(x types.Value) bool {
	return !types.Less(x, v.Lo) && !types.Less(v.Hi, x)
}

// Overlaps reports whether the intervals [v.Lo, v.Hi] and [o.Lo, o.Hi]
// intersect. This is the predicate "t ≃ t'" of Definition 22 lifted to a
// single attribute: the two range values may be equal in some world.
func (v V) Overlaps(o V) bool {
	return !types.Less(v.Hi, o.Lo) && !types.Less(o.Hi, v.Lo)
}

// Union returns the minimum bounding range of v and o, keeping v's selected
// guess. This is the attribute-merge used by the SG-combiner (Definition 21)
// and by group-by bound computation (Definition 25).
func (v V) Union(o V) V {
	return V{
		Lo: types.Min(v.Lo, o.Lo),
		SG: v.SG,
		Hi: types.Max(v.Hi, o.Hi),
	}
}

// Widen widens v to the minimum bounding range of v and o, in place,
// keeping v's selected guess: v.Union(o) without copying either triple.
func (v *V) Widen(o *V) {
	v.Lo = types.Min(v.Lo, o.Lo)
	v.Hi = types.Max(v.Hi, o.Hi)
}

// String renders the value; certain values render as the bare value.
func (v V) String() string {
	if v.IsCertain() {
		return v.SG.String()
	}
	return fmt.Sprintf("[%v/%v/%v]", v.Lo, v.SG, v.Hi)
}

// Tuple is a tuple of range-annotated values.
type Tuple []V

// CertainTuple lifts a deterministic tuple into D_I with certain values.
func CertainTuple(t types.Tuple) Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = Certain(v)
	}
	return out
}

// SG extracts the selected-guess tuple t^sg (Definition 13).
func (t Tuple) SG() types.Tuple {
	out := make(types.Tuple, len(t))
	for i, v := range t {
		out[i] = v.SG
	}
	return out
}

// Clone returns a deep copy.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// IsCertain reports whether every attribute value is certain.
func (t Tuple) IsCertain() bool {
	for i := range t {
		if !t[i].IsCertain() {
			return false
		}
	}
	return true
}

// Bounds reports whether t bounds the deterministic tuple d (Definition 14):
// every attribute of d lies within the corresponding range of t.
func (t Tuple) Bounds(d types.Tuple) bool {
	if len(t) != len(d) {
		return false
	}
	for i := range t {
		if !t[i].Contains(d[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether t and o overlap on every attribute (t ≃ o,
// Definition 22): the tuples may represent the same tuple in some world.
func (t Tuple) Overlaps(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		// V.Overlaps, reading both triples in place.
		a, b := &t[i], &o[i]
		if types.Less(a.Hi, b.Lo) || types.Less(b.Hi, a.Lo) {
			return false
		}
	}
	return true
}

// CertainlyEqual reports t ≡ o (Definition 22): t and o are attribute-wise
// certain and equal, i.e. they denote the same tuple in every world.
func (t Tuple) CertainlyEqual(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].IsCertain() || !o[i].IsCertain() || !types.Equal(t[i].SG, o[i].SG) {
			return false
		}
	}
	return true
}

// Union merges the bounds of o into t attribute-wise, keeping t's guesses.
func (t Tuple) Union(o Tuple) Tuple {
	out := make(Tuple, len(t))
	for i := range t {
		out[i] = t[i].Union(o[i])
	}
	return out
}

// Project returns the projection of t onto the given column indexes.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Concat returns the concatenation of t and o.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Key returns an injective encoding of the full triple tuple, used to merge
// value-equivalent tuples.
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// AppendKey appends Key's encoding to buf — the allocation-free form for
// hot loops that probe a map with m[string(buf)] before deciding whether
// to retain the key.
func (t Tuple) AppendKey(buf []byte) []byte {
	for _, v := range t {
		buf = v.Lo.AppendKey(buf)
		buf = v.SG.AppendKey(buf)
		buf = v.Hi.AppendKey(buf)
	}
	return buf
}

// SGKey returns an injective encoding of the selected-guess tuple, used by
// the SG-combiner and the default grouping strategy.
func (t Tuple) SGKey() string {
	var buf []byte
	for _, v := range t {
		buf = v.SG.AppendKey(buf)
	}
	return string(buf)
}

// String renders the tuple.
func (t Tuple) String() string {
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

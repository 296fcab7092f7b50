// Package core implements the paper's primary contribution: AU-DBs
// (attribute-annotated uncertain databases, Section 6) and their RA_agg
// query semantics (Sections 7-9), specialized to bag semantics (N^AU).
//
// A core.Relation annotates one selected-guess world: every attribute value
// is a range [lb/sg/ub] and every tuple carries a multiplicity triple
// (lb, sg, ub) bounding the tuple's certain multiplicity from below, giving
// its multiplicity in the selected-guess world, and bounding its possible
// multiplicity from above. Query evaluation preserves these bounds
// (Theorems 3, 4, 6 and Corollary 2).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/audb/audb/internal/types"
)

// Mult is an element of N^AU (Definition 11 for K = N): a triple
// (Lo, SG, Hi) with 0 <= Lo <= SG <= Hi in the natural order of N.
type Mult struct {
	Lo, SG, Hi int64
}

// One is the multiplicative identity (1,1,1).
var One = Mult{1, 1, 1}

// Zero is the additive identity (0,0,0).
var Zero = Mult{0, 0, 0}

// Valid reports 0 <= Lo <= SG <= Hi.
func (m Mult) Valid() bool { return 0 <= m.Lo && m.Lo <= m.SG && m.SG <= m.Hi }

// IsZero reports whether m is the zero annotation.
func (m Mult) IsZero() bool { return m == Zero }

// Add is pointwise semiring addition in N^AU. The upper bound saturates
// at MaxInt64 (see addHi).
func (m Mult) Add(o Mult) Mult {
	return Mult{m.Lo + o.Lo, m.SG + o.SG, addHi(m.Hi, o.Hi)}
}

// AddChecked is Add with the SG sum checked: an SG multiplicity that
// leaves int64 is an *types.ErrOverflow, as the SG world's count(*)
// reports it. Every sum of two rows' multiplicities goes through it. Lo <= SG, so Lo cannot overflow first; Hi saturates as in
// Add.
func (m Mult) AddChecked(o Mult) (Mult, error) {
	if sg := m.SG + o.SG; (sg^m.SG)&(sg^o.SG) < 0 {
		_, err := types.Add(types.Int(m.SG), types.Int(o.SG))
		return Mult{}, err
	}
	return m.Add(o), nil
}

// Mul is pointwise semiring multiplication in N^AU. The upper bound
// saturates at MaxInt64 (see mulHi).
func (m Mult) Mul(o Mult) Mult {
	return Mult{m.Lo * o.Lo, m.SG * o.SG, mulHi(m.Hi, o.Hi)}
}

// mulChecked is Mul with the SG product checked, as AddChecked checks a
// sum: an SG multiplicity that leaves int64 is an *types.ErrOverflow. For
// non-negative operands Lo <= SG, so the Lo product cannot overflow
// first; Hi saturates as in Mul.
func (m Mult) mulChecked(o Mult) (Mult, error) {
	if _, err := types.Mul(types.Int(m.SG), types.Int(o.SG)); err != nil {
		return Mult{}, err
	}
	return m.Mul(o), nil
}

// addHi adds two multiplicity upper bounds, saturating at MaxInt64 where
// the sum of two non-negative bounds would wrap. A saturated bound is
// loose, but it still bounds the multiplicity in every world; a wrapped
// one does not.
func addHi(a, b int64) int64 {
	s := a + b
	if a >= 0 && b >= 0 && s < 0 {
		return math.MaxInt64
	}
	return s
}

// mulHi multiplies two multiplicity upper bounds, saturating at MaxInt64
// as addHi does.
func mulHi(a, b int64) int64 {
	if a < 0 || b < 0 {
		return a * b
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// MonusBounds is the bound-preserving difference of Section 8.2: the lower
// bound subtracts the other side's upper bound and vice versa. (Pointwise
// monus does not preserve bounds.)
func (m Mult) MonusBounds(o Mult) Mult {
	return Mult{monus(m.Lo, o.Hi), monus(m.SG, o.SG), monus(m.Hi, o.Lo)}
}

func monus(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return 0
}

// Delta applies δ_N pointwise: δ(k) = 1 if k != 0 else 0.
func (m Mult) Delta() Mult {
	return Mult{delta(m.Lo), delta(m.SG), delta(m.Hi)}
}

func delta(k int64) int64 {
	if k != 0 {
		return 1
	}
	return 0
}

// Bounds reports whether the deterministic multiplicity k is sandwiched:
// Lo <= k <= Hi.
func (m Mult) Bounds(k int64) bool { return m.Lo <= k && k <= m.Hi }

// String renders the annotation as (lo,sg,hi).
func (m Mult) String() string { return fmt.Sprintf("(%d,%d,%d)", m.Lo, m.SG, m.Hi) }

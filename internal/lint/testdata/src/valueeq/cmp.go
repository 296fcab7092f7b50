// Fixture for the valueeq analyzer: outside internal/types, == and !=
// on a types.Value, or on a struct or array that holds one, compare
// floats by bits and must say which comparison they mean instead.
package valueeq

import (
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

type pair struct {
	key types.Value
	n   int
}

type boxed struct{ p pair }

func direct(a, b types.Value) bool {
	return a == b // want `== on types.Value compares floats by bits`
}

func notEqual(a types.Value) bool {
	return a != types.Float(0) // want `!= on types.Value compares floats by bits`
}

func triple(a, b rangeval.V) bool {
	return a == b // want `== on rangeval.V compares floats by bits`
}

func nested(a, b boxed) bool {
	return a != b // want `!= on valueeq.boxed compares floats by bits`
}

func array(a, b [2]types.Value) bool {
	return a == b // want `== on \[2\]types.Value compares floats by bits`
}

func viaInterface(a any, b types.Value) bool {
	return a == b // want `== on types.Value compares floats by bits`
}

func switchOn(v types.Value) int {
	switch v { // want `switch on types.Value compares floats by bits`
	case types.Int(1):
		return 1
	}
	return 0
}

// The comparisons the rule asks for, and comparisons of a Value's parts.
func clean(a, b types.Value, x, y rangeval.V) bool {
	return types.Equal(a, b) || types.Same(a, b) ||
		types.Same(x.SG, y.SG) || a.Kind() == b.Kind() ||
		a.AsString() == b.AsString()
}

func pointers(a, b *types.Value) bool {
	return a == b
}

func suppressed(a, b types.Value) bool {
	return a == b //lint:allow audblint-valueeq fixture: bit-identity is the point here
}

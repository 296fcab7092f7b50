// Fixture for the valueeq analyzer, posing as internal/types: the
// defining package implements Same as struct == and is exempt. No want
// comments here — the analyzer must stay silent.
package types

type Value struct {
	kind uint8
	i    int64
}

func Same(a, b Value) bool { return a == b }

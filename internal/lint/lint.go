package lint

import "github.com/audb/audb/internal/lint/analysis"

// Analyzers returns the gating audblint suite in reporting order: the
// custom invariant checkers first, then bundled nilness. The slice
// is freshly allocated; callers may filter it.
//
// Shadow is deliberately absent: like `go vet`, we found err-shadowing
// too idiomatic in Go to gate on. It stays available through
// AllAnalyzers (audblint -shadow, or -only shadow).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Boundsctor,
		Ctxpoll,
		Catalogsnap,
		Nocloneiter,
		Gatedoc,
		Obsspan,
		Valueeq,
		Nilness,
	}
}

// AllAnalyzers returns every analyzer the suite ships, including the
// non-gating ones.
func AllAnalyzers() []*analysis.Analyzer {
	return append(Analyzers(), Shadow)
}

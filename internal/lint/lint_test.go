package lint_test

import (
	"testing"

	"github.com/audb/audb/internal/lint"
	"github.com/audb/audb/internal/lint/linttest"
)

// The fixture packages pose as the real packages the analyzers are
// scoped to (see linttest); each contains both flagged and clean cases.

func TestBoundsctor(t *testing.T) {
	linttest.Run(t, lint.Boundsctor,
		linttest.Pkg{Dir: "testdata/src/boundsctor", Path: "github.com/audb/audb/internal/lintfixture/boundsctor"},
		linttest.Pkg{Dir: "testdata/src/boundsctor_inside", Path: "github.com/audb/audb/internal/rangeval"},
	)
}

func TestCtxpoll(t *testing.T) {
	linttest.Run(t, lint.Ctxpoll,
		linttest.Pkg{Dir: "testdata/src/ctxpoll", Path: "github.com/audb/audb/internal/core"},
	)
}

// TestCtxpollServiceLayer: the service layer is in scope too — audbd's
// over-the-wire cancellation promise holds it to the same polling rule.
func TestCtxpollServiceLayer(t *testing.T) {
	linttest.Run(t, lint.Ctxpoll,
		linttest.Pkg{Dir: "testdata/src/ctxpoll_server", Path: "github.com/audb/audb/internal/server"},
		linttest.Pkg{Dir: "testdata/src/ctxpoll_wire", Path: "github.com/audb/audb/internal/wire"},
		linttest.Pkg{Dir: "testdata/src/ctxpoll_audbd", Path: "github.com/audb/audb/cmd/audbd"},
	)
}

func TestCtxpollOutOfScopePackage(t *testing.T) {
	// The same fixture under a non-executor path must be silent.
	linttest.Run(t, lint.Ctxpoll,
		linttest.Pkg{Dir: "testdata/src/ctxpoll_quiet", Path: "github.com/audb/audb/internal/lintfixture/quiet"},
	)
}

func TestCatalogsnap(t *testing.T) {
	linttest.Run(t, lint.Catalogsnap,
		linttest.Pkg{Dir: "testdata/src/catalogsnap_core", Path: "github.com/audb/audb/internal/core"},
		linttest.Pkg{Dir: "testdata/src/catalogsnap_out", Path: "github.com/audb/audb/internal/lintfixture/out"},
		linttest.Pkg{Dir: "testdata/src/catalogsnap_server", Path: "github.com/audb/audb/internal/server"},
	)
}

func TestNocloneiter(t *testing.T) {
	linttest.Run(t, lint.Nocloneiter,
		linttest.Pkg{Dir: "testdata/src/nocloneiter", Path: "github.com/audb/audb/internal/phys"},
	)
}

// TestValueeq: == on a Value, or on a struct or array holding one, is
// flagged outside internal/types (test files included) and allowed
// inside it.
func TestValueeq(t *testing.T) {
	linttest.Run(t, lint.Valueeq,
		linttest.Pkg{Dir: "testdata/src/valueeq", Path: "github.com/audb/audb/internal/lintfixture/valueeq"},
		linttest.Pkg{Dir: "testdata/src/valueeq_types", Path: "github.com/audb/audb/internal/types"},
	)
}

func TestGatedoc(t *testing.T) {
	linttest.Run(t, lint.Gatedoc,
		linttest.Pkg{Dir: "testdata/src/gatedoc", Path: "github.com/audb/audb/internal/opt"},
	)
}

// TestObsspan: a started span must be ended or handed off; the obs
// package itself is exempt (the second fixture claims its import path,
// so it must run after the first, which imports the real obs).
func TestObsspan(t *testing.T) {
	linttest.Run(t, lint.Obsspan,
		linttest.Pkg{Dir: "testdata/src/obsspan", Path: "github.com/audb/audb/internal/server"},
		linttest.Pkg{Dir: "testdata/src/obsspan_obs", Path: "github.com/audb/audb/internal/obs"},
	)
}

func TestShadow(t *testing.T) {
	linttest.Run(t, lint.Shadow,
		linttest.Pkg{Dir: "testdata/src/shadow", Path: "github.com/audb/audb/internal/lintfixture/shadow"},
	)
}

func TestNilness(t *testing.T) {
	linttest.Run(t, lint.Nilness,
		linttest.Pkg{Dir: "testdata/src/nilness", Path: "github.com/audb/audb/internal/lintfixture/nilness"},
	)
}

// TestSuiteCleanOnRepo is the in-tree version of the CI gate: the whole
// module must be free of findings. Skipped with -short (it compiles the
// full module and every test variant).
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; run without -short")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(root, lint.Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

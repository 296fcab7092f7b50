package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/audb/audb/internal/lint/analysis"
)

// typesPath is the package that defines the domain value types.Value.
const typesPath = "github.com/audb/audb/internal/types"

// Valueeq keeps value comparison on the domain's own terms. types.Value
// holds a float as its IEEE-754 bits, so struct == compares floats by
// bits: Float(0) == Float(-0) is false and a NaN equals itself, while
// Equal follows the total order (0 equals -0, 2 equals 2.0). Outside
// internal/types, == and != (and a switch, which compares with ==) on a
// types.Value, or on a struct or array that holds one such as
// rangeval.V, must instead say which comparison it means: types.Equal
// for order-equality, types.Same for the identical representation.
// _test.go files are held to the rule too.
var Valueeq = &analysis.Analyzer{
	Name: "valueeq",
	Doc: "forbid == and != on types.Value (and on structs or arrays " +
		"holding one, such as rangeval.V) outside internal/types; use " +
		"types.Equal for order-equality or types.Same for bit-identity",
	Run: runValueeq,
}

func runValueeq(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == typesPath {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					break
				}
				// One side may be an interface holding a Value.
				t := pass.TypesInfo.TypeOf(n.X)
				if !holdsValue(t) {
					t = pass.TypesInfo.TypeOf(n.Y)
				}
				if holdsValue(t) {
					pass.Reportf(n.OpPos, "%s on %s compares floats by bits; use types.Equal (order) or types.Same (representation)", n.Op, typeName(t))
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					break
				}
				if t := pass.TypesInfo.TypeOf(n.Tag); holdsValue(t) {
					pass.Reportf(n.Tag.Pos(), "switch on %s compares floats by bits; use types.Equal (order) or types.Same (representation)", typeName(t))
				}
			}
			return true
		})
	}
	return nil, nil
}

// holdsValue reports whether t is types.Value or a struct or array that
// contains one by value, so that == on t compares Values.
func holdsValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "Value" && obj.Pkg() != nil && obj.Pkg().Path() == typesPath {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsValue(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsValue(u.Elem())
	}
	return false
}

// typeName renders t with package names rather than import paths.
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// Package lint is a stdlib-only static-analysis suite that mechanically
// enforces this repository's differential-privacy and determinism
// invariants. The invariants themselves were established by earlier PRs
// (budget reservation before sampling, split-RNG request streams, pooled
// scratch lifetimes, epoch-keyed caching, atomic counter discipline) but
// until now lived only in prose and fixed-seed tests; the analyzers here
// pin them at compile time, the way the paper's accuracy/privacy argument
// assumes they hold.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) without importing it: the module has
// no external dependencies and must keep building in hermetic containers,
// so the framework, the go-vet driver protocol (see driver.go), and the
// fixture test harness (see linttest/) are all implemented against the
// standard library only.
//
// Analyzers report findings through Pass.Report. A finding may be
// suppressed at its line with
//
//	//lint:allow <analyzer> <reason>
//
// where a non-empty reason is mandatory; the driver rejects a bare allow.
// Suppressions are intended to be rare (the repository target is zero) and
// each one is visible to reviewers by grep.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. It mirrors the x/tools analysis
// Analyzer shape: a Run function over a fully type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -<name> selection
	// flags, and //lint:allow comments. Lowercase, no spaces.
	Name string
	// Doc is a short description: first line is the summary, the rest
	// explains the invariant and the approved alternatives.
	Doc string
	// Run analyzes one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, plus the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full suite in stable order. cmd/reclint registers
// exactly this list; tests iterate it to assert every analyzer has
// fixtures.
func All() []*Analyzer {
	return []*Analyzer{
		RNGDiscipline,
		PoolScratch,
		AtomicField,
		EpochKey,
		NoiseOrder,
	}
}

// modulePath is the import-path prefix of this repository's packages.
// Analyzers match their own packages by path, so fixtures under
// testdata/src reuse the same prefix.
const modulePath = "socialrec"

// calleeFunc resolves the static callee of a call expression: a
// package-level function, a method (including generic instantiations), or
// nil for calls through function-typed values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			// Qualified identifier (pkg.Func) or instantiated generic.
			obj = info.Uses[fun.Sel]
		}
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is a package-level (non-method) function of
// the package with import path pkgPath.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// recvNamed returns the named receiver type of a method (dereferencing a
// pointer receiver), or nil for non-methods and unnamed receivers.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := deref(sig.Recv().Type()).(*types.Named)
	return named
}

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isMethodOf reports whether fn is a method named methodName on the named
// type typeName declared in package pkgPath. Generic receivers match their
// origin type, so Pool[int].Get matches ("…/stream", "Pool", "Get").
func isMethodOf(fn *types.Func, pkgPath, typeName, methodName string) bool {
	if fn == nil || fn.Name() != methodName {
		return false
	}
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// isTestFile reports whether the file's name (per the fileset) ends in
// _test.go.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// hasPathPrefix reports whether path is pkg or a sub-package of pkg.
func hasPathPrefix(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

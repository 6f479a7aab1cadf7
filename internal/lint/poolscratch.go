package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolScratch pins the pooled-scratch ownership contract of the request
// path (internal/stream pools): scratch obtained from stream.Pool.Get
// travels pool -> kernel -> request -> pool, never to the heap. The
// compile-time escape guard (scripts/escapecheck.sh) catches scratch that
// stops fitting its pool; this analyzer catches the lifetime bugs the
// compiler cannot see:
//
//   - use after release: any use of a scratch value after the Pool.Put
//     that returned it, or of a pooled utility.Support after its Release
//     (Release puts the backing scratch back, so the support's slices may
//     already hold another request's utilities — reading them is a data
//     race that corrupts the draw);
//   - escaping stores: assigning a Get result to a struct field or a
//     package-level variable parks request-scoped scratch somewhere that
//     outlives the request, silently defeating recycling and aliasing
//     one request's buffers into another's.
//
// The analysis is a per-function, source-order approximation: it tracks
// local variables bound to Pool.Get results, marks them released at a
// Put(v)/v.Release() call, and un-marks them when rebound. Control flow that
// releases on one branch and uses on another is reported — on this
// codebase's hot paths release is always the last act of a request, so a
// syntactic "use textually after release" is exactly the bug pattern.
var PoolScratch = &Analyzer{
	Name: "poolscratch",
	Doc: "flag pooled scratch used after Put/Release or stored past the request\n\n" +
		"stream.Pool scratch is owned pool->kernel->request->pool; a use " +
		"after Put or utility.Support.Release races with the next request's " +
		"Get, and a store to a field or global defeats recycling.",
	Run: runPoolScratch,
}

func runPoolScratch(pass *Pass) error {
	streamPkg := modulePath + "/internal/stream"
	// The stream package itself implements the pool and may touch
	// internals freely.
	if pass.Pkg.Path() == streamPkg {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolScratchFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkPoolScratchFunc walks one function body in source order.
func checkPoolScratchFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// tracked maps a local variable object to the position of the Get that
	// bound it; released maps it to the position of the Put/Release that
	// ended its lease.
	tracked := map[types.Object]token.Pos{}
	released := map[types.Object]token.Pos{}

	// localObj resolves an expression to the object of a plain local
	// identifier, or nil.
	localObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
			return v
		}
		return nil
	}

	isPoolGet := func(call *ast.CallExpr) bool {
		return isMethodOf(calleeFunc(info, call), modulePath+"/internal/stream", "Pool", "Get")
	}
	isPoolPut := func(call *ast.CallExpr) bool {
		return isMethodOf(calleeFunc(info, call), modulePath+"/internal/stream", "Pool", "Put")
	}
	isSupportRelease := func(call *ast.CallExpr) bool {
		return isMethodOf(calleeFunc(info, call), modulePath+"/internal/utility", "Support", "Release")
	}

	// storesEscape reports stores of tracked scratch to struct fields or
	// package-level variables.
	reportEscape := func(lhs, rhs ast.Expr) {
		obj := localObj(rhs)
		if obj == nil {
			return
		}
		if _, ok := tracked[obj]; !ok {
			return
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				// Linking scratch into other request-scoped pooled scratch
				// is the kernel pattern (one pooled object holding another
				// until both go back); the escape that matters is into
				// a value this request did not get from a pool.
				if base := localObj(l.X); base != nil {
					if _, ok := tracked[base]; ok {
						return
					}
				}
				pass.Reportf(rhs.Pos(),
					"pooled scratch %q stored to struct field %s: scratch must not outlive the request (return it and Put in the caller, or copy)",
					obj.Name(), sel.Obj().Name())
			}
		case *ast.Ident:
			if tgt := info.Uses[l]; tgt != nil {
				if v, ok := tgt.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					pass.Reportf(rhs.Pos(),
						"pooled scratch %q stored to package-level variable %s: scratch must not outlive the request",
						obj.Name(), v.Name())
				}
			}
		}
	}

	// Releases inside a defer run at function exit, after every
	// syntactically later use; they never start a released window.
	deferred := map[*ast.CallExpr]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
			return true

		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					reportEscape(lhs, rhs)
				}
				obj := localObj(lhs)
				if obj == nil {
					continue
				}
				// Rebinding ends any prior lease bookkeeping for the name.
				delete(released, obj)
				delete(tracked, obj)
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && len(n.Rhs) == len(n.Lhs) && isPoolGet(call) {
					tracked[obj] = call.Pos()
				}
			}
			return true

		case *ast.CallExpr:
			if deferred[n] {
				return true
			}
			// Put(v) releases v; v.Release() releases a pooled support v.
			// The lease ends at the call's End(), not Pos(): the releasing
			// call's own argument/receiver identifiers are part of the
			// release, not uses after it.
			if isPoolPut(n) && len(n.Args) == 1 {
				if obj := localObj(n.Args[0]); obj != nil {
					released[obj] = n.End()
				}
				return true
			}
			if isSupportRelease(n) {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if obj := localObj(sel.X); obj != nil {
						released[obj] = n.End()
					}
				}
				return true
			}
			return true

		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			if relPos, ok := released[obj]; ok && n.Pos() > relPos {
				pass.Reportf(n.Pos(),
					"use of %q after it was released at %s: pooled scratch may already back another request",
					n.Name, pass.Fset.Position(relPos))
				// Report once per variable; further uses are the same bug.
				delete(released, obj)
			}
			return true
		}
		return true
	})
}

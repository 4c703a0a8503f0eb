package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalState forbids writing a package-level variable anywhere but its own
// declaration. Outside package main every package's code is shared by all
// the runs the parallel runner executes at once, so a run is a pure function
// of its Scenario only if no such variable changes after initialization: a
// mutable global is a data race at best and, worse, a knob one run turns for
// its neighbours (a shared scale-ID counter once renamed scale operations
// between runs; a process-wide recovery switch changed what every concurrent
// run simulated). Read-only tables, `var _ I = (*T)(nil)` assertions and
// error sentinels stay legal: they are only ever read. The flagged forms are
// assignment (plain, compound or range), ++/--, a write through an index,
// field or dereference rooted at the variable, taking its address (&v, &v.f,
// &v[i]), and calling a pointer-receiver method on it (v.Swap), which takes
// the address implicitly — typed atomics included.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc:  "forbid writes to package-level variables after their declaration outside package main; runs must share no mutable process state",
	Run:  runGlobalState,
}

func runGlobalState(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	info := pass.TypesInfo
	report := func(target ast.Expr, form string) {
		if v := globalRoot(info, target); v != nil {
			pass.Reportf(target.Pos(), "%s package-level variable %s: runs executing in parallel share it — pass the state through a value instead", form, v.Name())
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						report(lhs, "assignment to")
					}
				}
			case *ast.IncDecStmt:
				report(n.X, n.Tok.String()+" on")
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, x := range []ast.Expr{n.Key, n.Value} {
						if x != nil {
							report(x, "range assignment to")
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					report(n.X, "address taken of")
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && addressesReceiver(sel) {
					report(n.X, "pointer-receiver method "+n.Sel.Name+" called on")
				}
			}
			return true
		})
	}
	return nil
}

// globalRoot resolves the variable an lvalue-shaped expression writes into
// — through parentheses, field selections, indexing and dereferences — and
// returns it when it is a package-level variable of any package.
func globalRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil {
				if sel.Kind() != types.FieldVal {
					return nil
				}
				e = x.X
				continue
			}
			return packageVar(info.Uses[x.Sel]) // qualified pkg.Name
		case *ast.Ident:
			return packageVar(info.Uses[x])
		default:
			return nil
		}
	}
}

// packageVar reports obj as a package-level variable, or nil.
func packageVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// addressesReceiver reports whether a method selection takes its operand's
// address: a pointer-receiver method selected on a non-pointer value.
func addressesReceiver(sel *types.Selection) bool {
	recv := sel.Obj().Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, ptrRecv := recv.Type().(*types.Pointer)
	_, ptrOperand := sel.Recv().Underlying().(*types.Pointer)
	return ptrRecv && !ptrOperand
}

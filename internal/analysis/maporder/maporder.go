// Package maporder flags `range` over a map whose body has order-sensitive
// effects: scheduling events, appending to slices that outlive the loop,
// sending on channels, writing output, or feeding a hash/fingerprint. Go
// randomizes map iteration order per run, so any such loop injects
// nondeterminism directly into event order, metric rows, reports or
// per-node trace fingerprints — the exact artifacts the figure golden and
// the replay digests pin byte-for-byte.
//
// The approved shape is to materialize and sort the keys first, then range
// over the sorted slice. The analyzer recognizes the collect-then-sort
// idiom: an append target that is later passed to a sort.* or slices.*
// call inside the same function is not a finding. Genuinely commutative
// map loops (counting, summing into scalars, building another map) are
// order-free and never flagged. Anything else needs either sorted keys or
// a reasoned //simlint:maporder annotation.
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/daiet/daiet/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body schedules events, appends to outer slices, writes " +
		"output or feeds a hash — map order is randomized; iterate sorted keys instead",
	Run: run,
}

// sinkPrefixes match callee names that make iteration order observable.
var sinkPrefixes = []string{
	"Schedule", "Send", "Emit", "Write", "Print", "Fprint",
	"Hash", "Fingerprint", "Encode", "Marshal",
}

// sinkExact are exact callee names with the same property.
var sinkExact = map[string]bool{
	"After": true, "Sum": true, "Sum64": true, "Mix64": true,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedObjects(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rng.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sink := orderSink(pass, rng, sorted); sink != "" {
					pass.Reportf(rng.Pos(),
						"iteration over map %s is order-sensitive (%s) but Go randomizes map "+
							"order; range over sorted keys, or annotate //simlint:maporder <reason>",
						exprString(rng.X), sink)
				}
				return true
			})
		}
	}
	return nil
}

// sortedObjects collects every object passed (as an argument root) to a
// sort.* or slices.* call anywhere in the function body: appends into
// these are the sanctioned collect-then-sort idiom. Sortedness propagates
// through range loops — when the element variable of `for _, v := range c`
// is sorted, the container c is treated as sorted too (the per-bucket
// pattern `for _, list := range kids { sort.Slice(list, ...) }`).
func sortedObjects(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || rng.Value == nil {
				return true
			}
			vid, ok := rng.Value.(*ast.Ident)
			if !ok || !out[pass.TypesInfo.ObjectOf(vid)] {
				return true
			}
			if id := rootIdent(rng.X); id != nil {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !out[obj] {
					out[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return out
}

// orderSink scans the range body for the first order-sensitive effect and
// describes it; "" means the body looked commutative.
func orderSink(pass *framework.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) string {
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					obj := pass.TypesInfo.ObjectOf(lhs)
					if obj == nil || sorted[obj] {
						continue // collected keys that get sorted below
					}
					if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
						sink = "appends to " + lhs.Name + ", which outlives the loop unsorted"
					}
				case *ast.IndexExpr, *ast.SelectorExpr:
					if id := rootIdent(lhs); id != nil {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil && sorted[obj] {
							continue // collected into a container sorted after the loop
						}
					}
					sink = "appends to state that outlives the loop"
				}
			}
		case *ast.CallExpr:
			if name := calleeName(n); name != "" && isSinkName(name) {
				sink = "calls " + name
			}
		}
		return true
	})
	return sink
}

func isBuiltinAppend(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return builtin
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isSinkName(name string) bool {
	if sinkExact[name] {
		return true
	}
	for _, p := range sinkPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "expression"
}

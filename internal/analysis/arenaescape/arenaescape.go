// Package arenaescape enforces the frame-arena ownership rule that makes
// the zero-alloc event hot path safe (see internal/netsim/arena.go): an
// arena slot is owned by the engine from alloc to take, and payloads pass
// by-reference exactly once (Send -> arena -> HandleFrame). Code that
// reaches into arena storage from anywhere else can retain a frame pointer
// past its delivery — the slot gets recycled and the "retained" frame
// silently becomes a different packet.
//
// The analyzer is type-name driven and flags, in the hot packages (netsim,
// dataplane, telemetry — whose hop sampler sees raw frame bytes), two
// escapes:
//
//   - touching frameArena/fnArena internals outside the engine's own
//     helpers (the arenas' methods, the scheduling and step functions, and
//     ArenaStats), and
//   - constructing or dereferencing an event's arena slot outside those
//     helpers (a stored slot is dangling the moment the event fires).
package arenaescape

import (
	"go/ast"
	"go/types"
	"slices"

	"github.com/daiet/daiet/internal/analysis/framework"
)

// hotPackages are the import-path leaf names the ownership rule governs.
var hotPackages = []string{"netsim", "dataplane", "telemetry"}

// arenaTypes are the slab-arena types whose internals are engine-private.
var arenaTypes = []string{"frameArena", "fnArena"}

// arenaFuncs may touch arena internals and event slots: the scheduling
// helpers (slot birth), Step (slot death), and the stats reader.
var arenaFuncs = []string{"Schedule", "scheduleFrame", "Step", "ArenaStats"}

var Analyzer = &framework.Analyzer{
	Name: "arenaescape",
	Doc: "flag code touching frame-arena internals or event slots outside the engine's own " +
		"scheduling helpers; arena slots are owned alloc-to-take",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !slices.Contains(hotPackages, pass.LastSegment()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checkFunc inspects one function body. FuncLits inherit their enclosing
// declaration's allowance.
func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	arenaOK := slices.Contains(arenaFuncs, fd.Name.Name) || receiverIsArena(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !arenaOK && isNamed(exprType(pass, n.X), arenaTypes...) {
				pass.Reportf(n.Sel.Pos(),
					"%s internals accessed outside the engine's helpers; slots are owned alloc-to-take — schedule through Engine.scheduleFrame/Schedule",
					typeName(exprType(pass, n.X)))
			}
			if !arenaOK && n.Sel.Name == "slot" && isNamed(exprType(pass, n.X), "event") {
				pass.Reportf(n.Sel.Pos(),
					"event arena slot used outside the scheduling helpers; a retained slot dangles once the event fires")
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[n].Type
			if !arenaOK && isNamed(t, "event") && setsField(n, "slot") {
				pass.Reportf(n.Pos(),
					"event with an arena slot constructed outside the scheduling helpers; use Engine.scheduleFrame/Schedule")
			}
		}
		return true
	})
}

// setsField reports whether the composite literal assigns the named field,
// positionally or by key.
func setsField(lit *ast.CompositeLit, field string) bool {
	for i, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: every field is set once any element is.
			_ = i
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}

// receiverIsArena reports whether fd is a method on one of the arena
// types (their own alloc/take/bytes helpers).
func receiverIsArena(pass *framework.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isNamed(pass.TypesInfo.Types[fd.Recv.List[0].Type].Type, arenaTypes...)
}

// exprType resolves e's static type (identifiers introduced by := resolve
// through their object).
func exprType(pass *framework.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// isNamed reports whether t (or its pointee) is a named type with one of
// the given local names.
func isNamed(t types.Type, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return slices.Contains(names, named.Obj().Name())
}

// typeName renders t's local name for diagnostics.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// Package wallclock forbids reading the host's real clock inside
// simulation packages. Every reproduced figure depends on runs being
// byte-identical across machines, -sim-workers settings and reruns;
// time.Now and friends leak wall time into that closed world.
//
// Scope: every package under an internal/ path segment, except the
// real-socket UDP runtime, whose deadlines are genuinely wall-clock. A
// measurement site inside a sim package must either route through an
// injected clock or carry a //simlint:wallclock <reason> annotation naming
// the volatile metric it feeds.
package wallclock

import (
	"go/ast"
	"go/types"
	"slices"

	"github.com/daiet/daiet/internal/analysis/framework"
)

// allowedPackages are the import-path segments (package directory names)
// where wall-clock access is the package's declared business.
var allowedPackages = []string{
	"udprt", // real UDP sockets: OS deadlines are wall time by nature
}

// banned are the time-package identifiers that read or wait on the real
// clock. Pure value types and arithmetic (time.Duration, time.Microsecond)
// remain free.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

var Analyzer = &framework.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now/Since/Sleep/...) in internal/ sim packages; " +
		"measurement sites must use an injected clock or a reasoned //simlint:wallclock annotation",
	Run: run,
}

func run(pass *framework.Pass) error {
	segs := pass.PathSegments()
	if !slices.Contains(segs, "internal") {
		return nil
	}
	if slices.Contains(allowedPackages, pass.LastSegment()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if banned[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s in a sim package breaks run-to-run byte identity; "+
						"use the event engine's virtual clock, inject a measurement clock, "+
						"or annotate the declared-volatile site with //simlint:wallclock <reason>",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

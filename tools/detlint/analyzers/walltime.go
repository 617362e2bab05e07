package analyzers

import (
	"go/ast"

	"vinfra/tools/detlint/internal/analysis"
)

// wallTimeFuncs are the time-package members that read or depend on the
// wall clock (or the process timer). time.Duration arithmetic and
// constants are fine; these are not.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// WallTime flags wall-clock reads in deterministic packages. Simulated
// time is the round counter; a wall-clock value that reaches a result
// makes the run irreproducible. A legitimate measurement site either lives
// in the allowlisted package (internal/service — the driver never runs
// this analyzer there) or carries a //detlint:walltime annotation (the
// engine's partition clock is the one in the tree).
var WallTime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "flags time.Now/Since/Sleep/... in deterministic packages; simulated time is the round counter",
	Run:  runWallTime,
}

func runWallTime(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass, sel)
			if !ok || path != "time" || !wallTimeFuncs[name] {
				return true
			}
			if pass.Exempt(sel.Pos(), "walltime") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a deterministic package; use the round counter, or annotate //detlint:walltime for a deliberate measurement", name)
			return true
		})
	}
	return nil, nil
}

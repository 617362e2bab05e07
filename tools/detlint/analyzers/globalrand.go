package analyzers

import (
	"go/ast"
	"go/types"

	"vinfra/tools/detlint/internal/analysis"
)

// globalRandFuncs are the math/rand package-level functions that draw from
// the process-global source: shared mutable state, nondeterministic under
// the parallel shards and unkeyed by (seed, round, node).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// GlobalRand flags any use of math/rand (or math/rand/v2) in deterministic
// packages. Package-level draws use the global source; raw sources and
// generators (rand.NewSource, rand.New, rand.NewPCG, ...) are seeded
// sequential state that duplicates — and drifts from — the det.Stream
// primitive. Randomness must flow through det.HashKeys / det.NewStream; a
// deliberately-seeded source that genuinely needs math/rand carries a
// //detlint:rand annotation.
var GlobalRand = &analysis.Analyzer{
	Name: "globalrand",
	Doc:  "flags math/rand use in deterministic packages; randomness must derive from det.HashKeys/det.NewStream",
	Run:  runGlobalRand,
}

func runGlobalRand(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass, sel)
			if !ok || !isRandPath(path) {
				return true
			}
			// A type reference (*rand.Rand in a signature) produces no
			// randomness itself; the constructor that fills it is the
			// flag site.
			if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			if pass.Exempt(sel.Pos(), "rand") {
				return true
			}
			switch {
			case globalRandFuncs[name]:
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the process-global source; derive the draw from det.HashKeys(seed, round, node) or a det.Stream instead", path, name)
			default:
				pass.Reportf(sel.Pos(),
					"raw %s.%s in a deterministic package; use det.NewStream(keys...) (or annotate the line //detlint:rand if this source is deliberately seeded)", path, name)
			}
			return true
		})
	}
	return nil, nil
}

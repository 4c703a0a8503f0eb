package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoSharedRand forbids the shared math/rand source and ad-hoc generators.
// Every random draw in a simulation must come from a named simtime RNG
// stream: simtime.NewRNG(seed, "component"), a math/rand/v2 PCG seeded from
// (seed, name), is the one constructor in the tree. The top-level rand
// functions share one process-global source, so any draw from them
// entangles components and makes the sequence depend on goroutine
// interleaving under the parallel runner; an ad-hoc rand.New or rand.NewPCG
// hides its seed from the scenario's seed plumbing. Constructors are legal
// only inside internal/simtime, where the streams are minted. Method calls
// on a rand value are always fine — the value reached the caller through a
// named stream.
var NoSharedRand = &Analyzer{
	Name: "nosharedrand",
	Doc:  "forbid global math/rand functions everywhere and rand.New outside internal/simtime; randomness must flow through named simtime RNG streams",
	Run:  runNoSharedRand,
}

// randConstructors may be called only inside internal/simtime.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// isSimtimePkg reports whether the package being analyzed is the RNG-stream
// factory itself (suffix match so linttest's fake module layout qualifies).
func isSimtimePkg(path string) bool {
	return path == "internal/simtime" || strings.HasSuffix(path, "/internal/simtime")
}

func runNoSharedRand(pass *Pass) error {
	inSimtime := isSimtimePkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(pass.TypesInfo, sel.X)
			if pn == nil || !isRandPkg(pn.Imported().Path()) {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true // a type or constant reference, e.g. rand.Rand
			}
			switch {
			case randConstructors[fn.Name()]:
				if !inSimtime {
					pass.Reportf(sel.Pos(), "ad-hoc rand.%s outside internal/simtime hides its seed from scenario plumbing; derive a named stream with simtime.NewRNG(seed, %q)", fn.Name(), "component")
				}
			default:
				pass.Reportf(sel.Pos(), "rand.%s draws from the process-global math/rand source, which is shared across goroutines and seeds; draw from a named simtime RNG stream instead", fn.Name())
			}
			return true
		})
	}
	return nil
}

package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRand reports calls to the process-global math/rand top-level
// functions and to time.Now inside the deterministic packages. DLACEP's
// differential suites assert that seeded runs reproduce the same match-key
// set across execution paths (Processor, RunWindows, the sharded
// pipeline); a single rand.Intn (which draws from the shared global
// source) or time.Now-derived value on the data path breaks that
// bit-reproducibility. Randomness must be
// injected as *rand.Rand (method calls are fine); wall-clock timing
// belongs to the sanctioned timing layers — internal/metrics (stopwatches),
// internal/obs (spans/histograms), and the harness — which the scope list
// deliberately excludes. Deterministic code times itself by delegating to
// those layers (metrics.StartStopwatch, obs.Start), never by calling
// time.Now directly.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "global math/rand or time.Now in deterministic packages",
	AppliesTo: inScope(
		"internal/nn", "internal/crf", "internal/core", "internal/dataset", "internal/event",
	),
	Run: runGlobalRand,
}

func runGlobalRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil { // methods on an injected *rand.Rand are the sanctioned pattern
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				// Constructors are deterministic given their arguments and are
				// how injected generators get built; only functions drawing
				// from the hidden package-global source break seeding.
				switch fn.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
					return true
				}
				p.Reportf(call.Pos(), "call to global %s.%s; inject a seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					p.Reportf(call.Pos(), "time.%s in deterministic package; route timing through the metrics or obs layer", fn.Name())
				}
			}
			return true
		})
	}
}

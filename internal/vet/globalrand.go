package vet

import (
	"go/ast"
	"go/types"
)

// randSourceCtors are the math/rand constructors that take an explicit
// seed (or explicit seed material) and are therefore allowed as the
// argument of rand.New.
var randSourceCtors = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// randExemptFuncs are math/rand package-level functions that do not touch
// the shared global generator.
var randExemptFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// globalrand flags use of the global math/rand generator and rand.New
// calls whose source is not visibly seeded. All pipeline randomness must
// flow through internal/stats' seeded SplitMix64 so (seed, trial) replay
// is exact.
func globalrand(p *pass) {
	for id, obj := range p.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !isRandPath(fn.Pkg().Path()) {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			continue // methods on *rand.Rand are fine: the instance was vetted at construction
		}
		if randExemptFuncs[fn.Name()] {
			continue
		}
		p.report(id.Pos(), RuleGlobalRand,
			"global rand."+fn.Name()+" draws from the shared unseeded generator",
			"thread a seeded RNG through (internal/stats SplitMix64) instead of the math/rand globals")
	}

	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.info, call)
			if fn == nil || fn.Name() != "New" || fn.Pkg() == nil ||
				!isRandPath(fn.Pkg().Path()) || !isPkgFunc(fn, fn.Pkg().Path()) {
				return true
			}
			if len(call.Args) == 1 {
				if src, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
					if ctor := calleeFunc(p.info, src); ctor != nil && ctor.Pkg() != nil &&
						isRandPath(ctor.Pkg().Path()) && randSourceCtors[ctor.Name()] {
						return true // rand.New(rand.NewSource(seed)): explicitly seeded
					}
				}
			}
			p.report(call.Pos(), RuleGlobalRand,
				"rand.New with an opaque source cannot be audited for seeding",
				"construct the source inline: rand.New(rand.NewSource(seed)), or use internal/stats")
			return true
		})
	}
}

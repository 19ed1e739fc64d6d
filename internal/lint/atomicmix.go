package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix keeps atomic memory out of reach of plain access by forbidding
// the untyped sync/atomic functions (atomic.AddUint64(&s.wm, 1), ...). A
// plain word that one path updates through those functions can be read or
// written plainly on another — a data race the race detector only catches
// when both paths run at once. A typed atomic.Int64, atomic.Bool or
// atomic.Pointer has no plain access to mix in, and go vet's copylocks
// check already catches a copy of one.
//
// A call that must stay (an interop layout no typed wrapper fits) carries
// //etxlint:allow atomicmix with a reason.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "use the typed sync/atomic wrappers (atomic.Int64, ...), never the untyped functions (atomic.AddUint64, ...), so atomic memory cannot be accessed plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "untyped sync/atomic function %s: use a typed atomic (atomic.Int64, ...), whose memory cannot be accessed plainly", fn.Name())
			}
			return true
		})
	}
	return nil
}

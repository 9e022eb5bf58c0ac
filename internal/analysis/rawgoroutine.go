package analysis

import (
	"go/ast"
	"go/types"
)

// RawGoroutine reports `go` statements in library packages whose
// enclosing function shows no sign of joining the goroutine. The sharded
// pipeline fans marking out over shard workers and the server spawns one
// goroutine per connection; a goroutine with no WaitGroup.Wait, channel
// receive, or select in its spawning function outlives the call, leaks
// under load, and — worse for DLACEP — can publish marks after the
// deterministic merge has already run. Join evidence is searched in the spawning function only, outside
// the goroutine bodies themselves.
var RawGoroutine = &Analyzer{
	Name:      "rawgoroutine",
	Doc:       "go statement without a visible join in the spawning function",
	AppliesTo: libraryPackage,
	Run:       runRawGoroutine,
}

func runRawGoroutine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				// Nested literals are examined when visited; a `go` inside a
				// FuncLit is judged against that literal's own body.
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkGoroutines(p, body)
			return true
		})
	}
}

// checkGoroutines reports unjoined go statements directly owned by body
// (not those inside nested function literals, which get their own pass).
func checkGoroutines(p *Pass, body *ast.BlockStmt) {
	var gos []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // owned by the nested function
		case *ast.GoStmt:
			gos = append(gos, n)
		}
		return true
	})
	if len(gos) == 0 || joins(p, body, gos) {
		return
	}
	for _, g := range gos {
		p.Reportf(g.Pos(), "goroutine has no visible join (WaitGroup.Wait, channel receive, or select) in the spawning function; it may outlive the call")
	}
}

// joins reports whether body contains join evidence outside the spawned
// goroutine subtrees: a *.Wait() call, a channel receive, a range over a
// channel, or a select statement.
func joins(p *Pass, body *ast.BlockStmt, gos []*ast.GoStmt) bool {
	inGo := func(n ast.Node) bool {
		for _, g := range gos {
			if n.Pos() >= g.Pos() && n.End() <= g.End() {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok && inGo(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SendStmt:
			// A send to an unbuffered done-channel is also a rendezvous,
			// but only receives prove the spawner observed completion;
			// sends are not counted.
		case *ast.RangeStmt:
			if t := p.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		}
		return !found
	})
	return found
}

// Package analysis is a from-scratch static-analysis framework for the
// DLACEP tree, built only on the standard library (go/parser, go/types,
// go/importer — no golang.org/x/tools). It exists because the paper's
// headline claims rest on invariants that `go vet` does not check:
// bit-reproducible seeded runs, deterministic match-key sets, and
// leak-free fan-out in the sharded pipeline and the server. Each Analyzer guards
// one such invariant; cmd/dlacep-vet drives them over the module.
//
// Suppression: a finding may be silenced with a directive comment
//
//	//dlacep:ignore <analyzer> <one-line reason>
//
// placed either on the offending line or on the line directly above it.
// The reason is mandatory; a directive with a missing reason or an
// unknown analyzer name is itself reported as a finding, so suppressions
// stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "floatcmp"
	Doc  string // one-line description of the guarded invariant

	// AppliesTo gates the analyzer by module-relative package directory
	// ("" is the module root, "internal/nn", "cmd/dlacep-run", ...).
	// A nil AppliesTo means the analyzer runs on every package.
	AppliesTo func(rel string) bool

	Run func(*Pass)

	// RunModule, when set, runs once over the whole module instead of
	// per-package. Interprocedural analyzers (hotalloc, aliasguard,
	// spscowner) use it to share the call graph and annotation table.
	// An analyzer defines Run or RunModule, not both.
	RunModule func(*ModulePass)
}

// Pass carries one type-checked package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Rel      string // module-relative package directory

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass carries the whole loaded module to a module-level Analyzer,
// plus the shared interprocedural state (call graph, annotation table)
// built at most once per Run invocation.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
	Fset     *token.FileSet

	shared *moduleShared
	diags  *[]Diagnostic
}

// moduleShared is the state shared by all module analyzers of one Run.
type moduleShared struct {
	m     *Module
	graph *CallGraph
	ann   *annotations
}

// Graph returns the module call graph, building it on first use.
func (p *ModulePass) Graph() *CallGraph {
	if p.shared.graph == nil {
		p.shared.graph = BuildCallGraph(p.shared.m)
	}
	return p.shared.graph
}

// Annotations returns the parsed module annotation table.
func (p *ModulePass) Annotations() *annotations { return p.shared.ann }

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, positioned in the loaded FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//dlacep:ignore"

// suppression is one parsed //dlacep:ignore directive.
type suppression struct {
	pos      token.Position // directive position (pos.Filename/pos.Line locate it)
	analyzer string
	reason   string
}

// parseSuppressions scans a file's comments for ignore directives.
// Malformed directives (no reason, or an analyzer name not in known)
// are reported as "ignore" findings so they cannot rot silently.
func parseSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic) []suppression {
	var sups []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnoreDirective) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, IgnoreDirective))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			switch {
			case name == "":
				*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "ignore",
					Message: "malformed directive: want //dlacep:ignore <analyzer> <reason>"})
			case !known[name]:
				*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "ignore",
					Message: fmt.Sprintf("unknown analyzer %q in ignore directive", name)})
			case reason == "":
				*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "ignore",
					Message: fmt.Sprintf("ignore directive for %q is missing a reason", name)})
			default:
				sups = append(sups, suppression{pos: pos, analyzer: name, reason: reason})
			}
		}
	}
	return sups
}

// Run applies analyzers to every package of m and returns the surviving
// findings sorted by position. A finding is dropped when a well-formed
// //dlacep:ignore directive for its analyzer sits on the same line or the
// line directly above. A suppression for a *selected* analyzer that
// silences nothing is itself reported (stale-suppression check), so
// audited exemptions cannot outlive the diagnostics they were written for.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	selected := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		selected[a.Name] = true
	}
	// Directive validation is always performed against the full registry,
	// so running a subset (dlacep-vet -only=...) does not misreport
	// directives for the analyzers that were not selected.
	for _, a := range All() {
		known[a.Name] = true
	}

	var raw, kept []Diagnostic
	var sups []suppression
	shared := &moduleShared{m: m, ann: collectAnnotations(m, &kept)}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			sups = append(sups, parseSuppressions(m.Fset, f, known, &kept)...)
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Rel) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     m.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Rel:      pkg.Rel,
				diags:    &raw,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Module: m, Fset: m.Fset, shared: shared, diags: &raw})
	}

	used := make([]bool, len(sups))
	suppressed := func(d Diagnostic) bool {
		hit := false
		for i, s := range sups {
			if s.analyzer == d.Analyzer && s.pos.Filename == d.Pos.Filename &&
				(s.pos.Line == d.Pos.Line || s.pos.Line == d.Pos.Line-1) {
				used[i] = true
				hit = true
			}
		}
		return hit
	}
	for _, d := range raw {
		if !suppressed(d) {
			kept = append(kept, d)
		}
	}
	// Stale-suppression check: a directive for an analyzer that ran in this
	// invocation but matched no raw diagnostic is dead weight — the code it
	// excused has changed. Unselected analyzers are skipped so partial runs
	// (dlacep-vet -only=...) do not misreport live suppressions.
	for i, s := range sups {
		if used[i] || !selected[s.analyzer] {
			continue
		}
		kept = append(kept, Diagnostic{Pos: s.pos, Analyzer: "ignore",
			Message: fmt.Sprintf("stale suppression: no %s diagnostic fires on this line or the line below; delete the directive", s.analyzer)})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// inScope builds an AppliesTo predicate from an exact set of
// module-relative package directories.
func inScope(rels ...string) func(string) bool {
	set := map[string]bool{}
	for _, r := range rels {
		set[r] = true
	}
	return func(rel string) bool { return set[rel] }
}

// libraryPackage reports whether rel names library (non-binary) code:
// everything except cmd/* and the runnable examples/*.
func libraryPackage(rel string) bool {
	return rel != "cmd" && !strings.HasPrefix(rel, "cmd/") &&
		rel != "examples" && !strings.HasPrefix(rel, "examples/")
}

// walkWithStack traverses the AST depth-first, maintaining the ancestor
// stack (root-first, excluding n itself). Returning false from fn prunes
// the subtree. It replaces x/tools' inspector.WithStack.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if ok {
			stack = append(stack, n)
		}
		return ok
	})
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, together with the name of the outermost *declared* function
// (FuncLit bodies inherit the declaration's name — a closure inside
// MustCompile still counts as MustCompile for exemption purposes).
func enclosingFunc(stack []ast.Node) (inner ast.Node, declName string) {
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			inner = fn
			declName = fn.Name.Name
		case *ast.FuncLit:
			inner = fn
		}
	}
	return inner, declName
}

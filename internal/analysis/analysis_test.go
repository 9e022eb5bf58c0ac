package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// One positive + negative fixture tree per analyzer, exercised through
// the // want harness. Each tree also carries an out-of-scope package
// proving the AppliesTo gate.
func TestFloatCmpFixture(t *testing.T)     { runFixture(t, FloatCmp, "floatcmp") }
func TestGlobalRandFixture(t *testing.T)   { runFixture(t, GlobalRand, "globalrand") }
func TestMapOrderFixture(t *testing.T)     { runFixture(t, MapOrder, "maporder") }
func TestRawGoroutineFixture(t *testing.T) { runFixture(t, RawGoroutine, "rawgoroutine") }
func TestLibPanicFixture(t *testing.T)     { runFixture(t, LibPanic, "libpanic") }
func TestHotAllocFixture(t *testing.T)     { runFixture(t, HotAlloc, "hotalloc") }
func TestAliasGuardFixture(t *testing.T)   { runFixture(t, AliasGuard, "aliasguard") }
func TestSPSCOwnerFixture(t *testing.T)    { runFixture(t, SPSCOwner, "spscowner") }

// writeTree materializes a miniature module in a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestMalformedIgnoreDirectives(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/a.go": `package core

//dlacep:ignore
func a() {}

//dlacep:ignore nosuchanalyzer because reasons
func b() {}

//dlacep:ignore libpanic
func c() {}
`,
	})
	m, err := LoadTree(root, "dlacep")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, All())
	var msgs []string
	for _, d := range diags {
		if d.Analyzer != "ignore" {
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d.Message)
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d directive findings, want 3: %v", len(msgs), msgs)
	}
	for i, want := range []string{"malformed directive", "unknown analyzer", "missing a reason"} {
		if !strings.Contains(msgs[i], want) {
			t.Errorf("finding %d = %q, want substring %q", i, msgs[i], want)
		}
	}
}

func TestSuppressionSameLineAndAbove(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/a.go": `package core

func above() {
	//dlacep:ignore libpanic tested invariant
	panic("x")
}

func inline() {
	panic("y") //dlacep:ignore libpanic tested invariant
}

func unsuppressed() {
	panic("z")
}

func wrongAnalyzer() {
	//dlacep:ignore floatcmp reason for the wrong analyzer
	panic("w")
}
`,
	})
	m, err := LoadTree(root, "dlacep")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, []*Analyzer{LibPanic})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (unsuppressed + wrongAnalyzer): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "libpanic" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/b.go": "package core\n\nfunc later() { panic(1) }\n",
		"internal/core/a.go": "package core\n\nfunc earlier() { panic(0) }\n\nfunc second() { panic(2) }\n",
	})
	m, err := LoadTree(root, "dlacep")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, []*Analyzer{LibPanic})
	if len(diags) != 3 {
		t.Fatalf("got %d findings, want 3", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
	if !strings.HasSuffix(diags[0].Pos.Filename, "a.go") || !strings.HasSuffix(diags[2].Pos.Filename, "b.go") {
		t.Errorf("unexpected order: %v", diags)
	}
}

// TestLoadHonorsBuildConstraints checks that the loader type-checks the
// files go build would compile: a function split across a tagged-out file
// and a default one must not be reported as redeclared, and the tagged-out
// file's findings must not appear.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/clock.go":       "package core\n\nfunc now() int64 { return 0 }\n",
		"internal/core/clock_never.go": "//go:build dlacep_never\n\npackage core\n\nfunc now() int64 { panic(0) }\n",
	})
	m, err := LoadTree(root, "dlacep")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(m, []*Analyzer{LibPanic}); len(diags) != 0 {
		t.Errorf("findings from a tagged-out file: %v", diags)
	}
}

// TestRealModuleClean is the driver test demanded by the issue: dlacep-vet
// must report zero unsuppressed findings on the repository itself. A
// violation introduced anywhere in the tree fails this test even before
// CI runs the binary.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing parts of the module", len(m.Pkgs))
	}
	diags := Run(m, All())
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.RunModule == nil) {
			t.Errorf("analyzer %+v incompletely defined", a)
		}
		if a.Run != nil && a.RunModule != nil {
			t.Errorf("analyzer %q defines both Run and RunModule", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"floatcmp", "globalrand", "maporder", "rawgoroutine", "libpanic",
		"hotalloc", "aliasguard", "spscowner"} {
		if !names[want] {
			t.Errorf("analyzer %q missing from registry", want)
		}
	}
	sel, unknown := ByName([]string{"floatcmp", "bogus"})
	if len(sel) != 1 || sel[0] != FloatCmp {
		t.Errorf("ByName selection wrong: %v", sel)
	}
	if len(unknown) != 1 || unknown[0] != "bogus" {
		t.Errorf("ByName unknown wrong: %v", unknown)
	}
}

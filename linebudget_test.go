package dlacep

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lineBudget is the most non-test Go lines (every line of every .go file
// that is not a _test.go file, testdata excluded) each package under
// internal/ and cmd/ may hold. A package above its entry fails
// TestLineBudget: raising an entry is a visible diff a change has to
// explain, and a change that deletes code lowers the entries it frees.
// cmd/dlacep-servebench, the benchmark that measures the served system,
// is changed only together with the benchmark definition and is not
// budgeted here.
var lineBudget = map[string]int{
	"cmd/dlacep-bench":         161,
	"cmd/dlacep-benchjson":     286,
	"cmd/dlacep-datagen":       57,
	"cmd/dlacep-inspect":       240,
	"cmd/dlacep-run":           153,
	"cmd/dlacep-serve":         356,
	"cmd/dlacep-train":         210,
	"cmd/dlacep-vet":           202,
	"internal/acep":            92,
	"internal/adapt":           549,
	"internal/analysis":        2688,
	"internal/cep":             1555,
	"internal/core":            2870,
	"internal/crf":             300,
	"internal/dataset":         197,
	"internal/embed":           216,
	"internal/event":           240,
	"internal/harness":         2254,
	"internal/label":           225,
	"internal/lazy":            468,
	"internal/lifecycle":       1201,
	"internal/mcep":            383,
	"internal/metrics":         159,
	"internal/nn":              1973,
	"internal/obs":             793,
	"internal/obs/trace":       571,
	"internal/pattern":         1529,
	"internal/pattern/compile": 752,
	"internal/queries":         321,
	"internal/server":          691,
	"internal/shard":           1176,
	"internal/shed":            266,
	"internal/train":           384,
	"internal/zstream":         672,
}

// unbudgeted lists the directories under internal/ and cmd/ the budget
// does not cover.
var unbudgeted = map[string]bool{"cmd/dlacep-servebench": true}

// nonTestLines counts the non-test Go lines of every package directory
// under the given roots, keyed by slash-separated path.
func nonTestLines(roots ...string) (map[string]int, error) {
	out := map[string]int{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || unbudgeted[filepath.ToSlash(path)] {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(b, []byte("\n"))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestLineBudget(t *testing.T) {
	got, err := nonTestLines("internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(got))
	total := 0
	for pkg, n := range got {
		pkgs = append(pkgs, pkg)
		total += n
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		budget, ok := lineBudget[pkg]
		switch {
		case !ok:
			t.Errorf("%s: %d non-test lines and no entry in lineBudget", pkg, got[pkg])
		case got[pkg] > budget:
			t.Errorf("%s: %d non-test lines, budget %d", pkg, got[pkg], budget)
		}
	}
	for pkg := range lineBudget {
		if _, ok := got[pkg]; !ok {
			t.Errorf("lineBudget entry %s names no package", pkg)
		}
	}
	t.Logf("%d non-test lines in %d budgeted packages", total, len(pkgs))
}

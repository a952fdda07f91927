package gmreg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignMetricTable keeps the metric table in DESIGN.md §10 equal to the
// metric names the code registers: every "gmreg_…" literal passed as the
// name to Counter, Gauge, Histogram, CounterFunc or GaugeFunc in non-test Go
// (perfbench/ excluded) must be listed, and every listed name must be
// registered somewhere.
func TestDesignMetricTable(t *testing.T) {
	code := registeredMetricNames(t)
	doc := designMetricNames(t)
	for _, name := range sortedKeys(code) {
		if !doc[name] {
			t.Errorf("%s (registered in %s) is missing from DESIGN.md §10", name, code[name])
		}
	}
	for _, name := range sortedKeys(doc) {
		if _, ok := code[name]; !ok {
			t.Errorf("DESIGN.md §10 lists %s, which no code registers", name)
		}
	}
}

// registeredMetricNames maps each registered gmreg_ metric name to the file
// that registers it.
func registeredMetricNames(t *testing.T) map[string]string {
	t.Helper()
	registrars := map[string]bool{
		"Counter": true, "Gauge": true, "Histogram": true, "CounterFunc": true, "GaugeFunc": true,
	}
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "gmreg_") {
				names[name] = path
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("found no registered gmreg_ metrics; the source walk is broken")
	}
	return names
}

// designMetricNames returns the metric names in the first column of the
// tables in DESIGN.md §10.
func designMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "\n## 10.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §10")
	}
	section := text[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	row := regexp.MustCompile("(?m)^\\| `(gmreg_[a-z0-9_]+)` \\|")
	names := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		names[m[1]] = true
	}
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

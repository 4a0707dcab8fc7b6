package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Design-regression tests in the style of durable's time.Now ban: parse
// every non-test file in this package and reject source patterns that
// would silently undo an invariant the package depends on.

// parseServeFiles yields every non-test .go file in this package.
func parseServeFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(".", name), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files[name] = file
	}
	return fset, files
}

// TestNoDirectTimeCalls bans the runtime's timing primitives in this
// package: every timestamp, elapsed measurement, timer and sleep must
// flow through the injected obs.Clock, or the deterministic simulation
// harness (internal/dst) silently loses control of that code path. A new
// call site is a design regression, caught here.
func TestNoDirectTimeCalls(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true,
		"AfterFunc": true, "After": true, "Tick": true,
		"NewTimer": true, "NewTicker": true, "Sleep": true,
	}
	fset, files := parseServeFiles(t)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg.Name == "time" && banned[sel.Sel.Name] {
				t.Errorf("%s: direct time.%s call — route it through the injected obs.Clock (Config.Clock)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestNoTornLoadReads bans pairing two single-field placer load reads —
// QueueDepth, FreeSlots — inside one function. Each call takes
// and drops the placer lock, so two calls describe two different
// instants; arithmetic across them (an admission bound, a Retry-After
// hint, an exported gauge pair) is a torn read. Functions that need a
// consistent view must take one Snapshot(). placer.go itself is exempt:
// it defines the accessors and does its real work under p.mu.
func TestNoTornLoadReads(t *testing.T) {
	loadReads := map[string]bool{"QueueDepth": true, "FreeSlots": true}
	fset, files := parseServeFiles(t)
	for name, file := range files {
		if name == "placer.go" {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var calls []string
			var positions []token.Pos
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !loadReads[sel.Sel.Name] || len(call.Args) != 0 {
					return true
				}
				calls = append(calls, sel.Sel.Name)
				positions = append(positions, sel.Pos())
				return true
			})
			if len(calls) >= 2 {
				t.Errorf("%s: %s pairs %s — two lock acquisitions describe two instants; take one placer.Snapshot() instead",
					fset.Position(positions[1]), fn.Name.Name, strings.Join(calls, "+"))
			}
		}
	}
}

// TestTornLoadReadDetectorFires proves the detector actually recognizes
// the pattern it bans, so a refactor of the walker cannot quietly turn
// the guard into a no-op.
func TestTornLoadReadDetectorFires(t *testing.T) {
	src := `package serve
func torn(p *Placer) int { return p.FreeSlots() - p.QueueDepth() }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "torn.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadReads := map[string]bool{"QueueDepth": true, "FreeSlots": true}
	found := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && loadReads[sel.Sel.Name] && len(call.Args) == 0 {
				found++
			}
			return true
		})
	}
	if found < 2 {
		t.Fatalf("detector found %d load reads in the known-torn sample, want 2", found)
	}
}

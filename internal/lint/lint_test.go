package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// incAnalyzer reports every ++/-- statement. It borrows a registered name
// ("maporder") so //lint:allow resolution treats it as known, which lets
// these tests exercise the suppression machinery without depending on any
// real analyzer's trigger conditions.
func incAnalyzer() *Analyzer {
	a := &Analyzer{Name: "maporder", Doc: "test double reporting every IncDecStmt"}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if inc, ok := n.(*ast.IncDecStmt); ok {
					pass.Reportf(inc.Pos(), "inc")
				}
				return true
			})
		}
		return nil
	}
	return a
}

// runOn type-checks src under the given filename and runs the inc test
// double through the full Run pipeline (test-file filtering, suppression,
// sorting).
func runOn(t *testing.T, filename, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	diags, err := Run(fset, []*ast.File{f}, pkg, info, []*Analyzer{incAnalyzer()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

func TestAllowSuppressionAndMalformedAllows(t *testing.T) {
	src := `package p

func f() {
	x := 0
	x++
	//lint:allow maporder order-insensitive by construction
	x++
	x++ //lint:allow maporder order-insensitive by construction
	//lint:allow maporder
	x++
	//lint:allow bogus some reason
	x++
	//lint:allow
	x++
	_ = x
}
`
	diags := runOn(t, "p.go", src)
	want := []struct {
		line     int
		analyzer string
		contains string
	}{
		{5, "maporder", "inc"},              // no allow anywhere near
		{9, "lintallow", "needs a reason"},  // bare analyzer, no reason
		{10, "maporder", "inc"},             // the reasonless allow must not suppress
		{11, "lintallow", "known analyzer"}, // "bogus" is not an analyzer
		{12, "maporder", "inc"},
		{13, "lintallow", "known analyzer"}, // no analyzer at all
		{14, "maporder", "inc"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Line != w.line || d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.contains) {
			t.Errorf("diag %d = line %d %s %q; want line %d %s containing %q",
				i, d.Pos.Line, d.Analyzer, d.Message, w.line, w.analyzer, w.contains)
		}
	}
	// Lines 7 (allow above) and 8 (allow on the line) must be silent.
	for _, d := range diags {
		if d.Pos.Line == 7 || d.Pos.Line == 8 {
			t.Errorf("suppressed line %d still reported: %v", d.Pos.Line, d)
		}
	}
}

func TestTestFilesAreSkipped(t *testing.T) {
	src := `package p

func f() {
	x := 0
	x++
	_ = x
}
`
	if diags := runOn(t, "p_test.go", src); len(diags) != 0 {
		t.Fatalf("diagnostics reported in a _test.go file: %v", diags)
	}
}

// TestDiagnosticString prints a diagnostic as position, analyzer, message,
// the form go vet shows.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "nowallclock",
		Pos:      token.Position{Filename: "run.go", Line: 12, Column: 5},
		Message:  "time.Now reads the wall clock",
	}
	if got, want := d.String(), "run.go:12:5: nowallclock: time.Now reads the wall clock"; got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
}

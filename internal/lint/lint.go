// Package lint implements drrs's determinism analyzers: machine-checked
// versions of the invariants that every golden digest, chaos scenario, and
// policy comparison in this repo rests on. The simulator must be bit-for-bit
// deterministic for a given seed, which bans four habits that are harmless
// in ordinary Go programs — reading the wall clock, drawing from the shared
// math/rand source, letting map iteration order leak into simulation
// effects, and keeping mutable package-level state that the runs of the
// parallel runner would share.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is built purely on the standard library so
// the repo stays dependency-free: cmd/drrs-lint drives it through `go vet
// -vettool`, and linttest drives it over golden testdata packages.
//
// Suppression: a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it silences that analyzer
// there. The reason is mandatory; a bare allow is itself reported. Allows
// are for sites where the rule is satisfied in a way the analyzer cannot
// see (e.g. wall-clock use in the bench runner's wall-budget reporting,
// which never feeds simulation time) — true violations must be fixed, not
// allowed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one determinism rule. Run inspects a type-checked package
// and reports violations through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis. It reports findings via Pass.Reportf and
	// returns an error only for internal failures, not for violations.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation, already resolved to a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full determinism suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{NoWallClock, NoSharedRand, MapOrder, GlobalState}
}

// Run applies the analyzers to one type-checked package and returns the
// surviving diagnostics sorted by position. Test files (*_test.go) are
// excluded: tests assert on outcomes, they do not generate simulation
// events, so wall-clock deadlines and ad-hoc randomness are fine there.
// //lint:allow suppressions are applied here so every driver (vettool,
// linttest) shares identical semantics; malformed allows are reported as
// diagnostics in their own right.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	kept := files[:0:0]
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		kept = append(kept, f)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     kept,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	allows, bad := collectAllows(fset, kept)
	var out []Diagnostic
	for _, d := range diags {
		if allows.covers(d) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, bad...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

// allowSet records, per file and line, which analyzers an //lint:allow
// comment on that line silences.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	// The allow may sit on the flagged line itself or on the line above.
	return lines[d.Pos.Line][d.Analyzer] || lines[d.Pos.Line-1][d.Analyzer]
}

const allowPrefix = "//lint:allow"

// collectAllows parses //lint:allow comments from the files. A malformed
// allow (no analyzer, unknown analyzer, or missing reason) is returned as a
// diagnostic so it fails the build instead of silently not suppressing.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	allows := make(allowSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0 || !known[fields[0]]:
					bad = append(bad, Diagnostic{
						Analyzer: "lintallow",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed %s: want %q with a known analyzer (%s)", allowPrefix, allowPrefix+" <analyzer> <reason>", strings.Join(analyzerNames(), ", ")),
					})
				case len(fields) < 2:
					bad = append(bad, Diagnostic{
						Analyzer: "lintallow",
						Pos:      pos,
						Message:  fmt.Sprintf("%s %s needs a reason: say why this site cannot perturb the simulation", allowPrefix, fields[0]),
					})
				default:
					lines := allows[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						allows[pos.Filename] = lines
					}
					names := lines[pos.Line]
					if names == nil {
						names = make(map[string]bool)
						lines[pos.Line] = names
					}
					names[fields[0]] = true
				}
			}
		}
	}
	return allows, bad
}

func analyzerNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// pkgNameOf resolves the base of a selector expression to an imported
// package, or nil if the selector is not a package-qualified reference
// (e.g. a field or method access). Shadowed package identifiers resolve
// correctly because the lookup goes through the type checker, not the
// import table.
func pkgNameOf(info *types.Info, expr ast.Expr) *types.PkgName {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

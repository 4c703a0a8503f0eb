package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is the module root, relative to this package's test directory.
const repoRoot = "../.."

// gateRun is one `go test <pkg> -bench '<regex>'` line of the CI bench gate.
type gateRun struct {
	dir string
	re  *regexp.Regexp
}

// gateRunLine matches a bench-gate step. A line with no ./package right
// after `go test` benchmarks the module root (its trailing `.`).
var gateRunLine = regexp.MustCompile(`go test (\./\S+)?.*-bench '([^']+)'`)

// benchFunc matches a top-level benchmark declaration.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)

// TestBaselineRowsAreGatedBenchmarks keeps bench_baseline.json honest: every
// row must name a benchmark function that exists, in a package whose CI
// bench-gate line selects it. A row for a deleted or unselected benchmark
// would otherwise sit in the baseline forever, gating nothing.
func TestBaselineRowsAreGatedBenchmarks(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "bench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var runs []gateRun
	for _, m := range gateRunLine.FindAllStringSubmatch(string(ci), -1) {
		dir := "."
		if m[1] != "" {
			dir = filepath.Clean(m[1])
		}
		runs = append(runs, gateRun{dir: dir, re: regexp.MustCompile(m[2])})
	}
	if len(runs) == 0 {
		t.Fatal("no bench-gate `go test -bench` lines found in ci.yml")
	}
	defined := benchmarkDirs(t)
	for name := range base.Benchmarks {
		dirs := defined[name]
		if len(dirs) == 0 {
			t.Errorf("baseline row %s names no func %s in any _test.go file", name, name)
			continue
		}
		if !selected(runs, dirs, name) {
			t.Errorf("baseline row %s (defined in %v) is selected by no bench-gate line in ci.yml", name, dirs)
		}
	}
}

// benchmarkDirs maps each benchmark function name to the package
// directories (relative to the module root) that declare it.
func benchmarkDirs(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = append(out[m[1]], rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// selected reports whether some gate run over one of dirs selects name.
func selected(runs []gateRun, dirs []string, name string) bool {
	for _, r := range runs {
		for _, d := range dirs {
			if r.dir == d && r.re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

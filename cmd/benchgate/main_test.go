package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchMalformedValue(t *testing.T) {
	// ns/op is not gated, but a garbled value in any column means the line
	// is not go test output and its other columns cannot be trusted either.
	in := "BenchmarkSchedulerTimerHeap-8   1000   12x34 ns/op   0 allocs/op\n"
	_, err := parseBench(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed ns/op value parsed without error")
	}
	if !strings.Contains(err.Error(), `bad value "12x34"`) {
		t.Fatalf("error %q does not name the bad value", err)
	}
}

func TestParseBenchRejectsNonCounts(t *testing.T) {
	for _, in := range []string{
		"BenchmarkEdgePump-8 1000 NaN allocs/op 0 B/op",
		"BenchmarkEdgePump-8 1000 0 allocs/op +Inf B/op",
		"BenchmarkEdgePump-8 1000 -3 allocs/op 0 B/op",
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "is not a count") {
			t.Errorf("%q: err %v, want a not-a-count error", in, err)
		}
	}
}

func TestParseBenchNormalizesAndKeepsMin(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkEdgePump-8     2000   1500 ns/op   3 allocs/op   128 B/op",
		"BenchmarkEdgePump-8     2000   1400 ns/op   3 allocs/op   120 B/op",
		"not a bench line",
		"BenchmarkNoSuffix       1000   900 ns/op",
		"PASS",
	}, "\n")
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	ep := got["BenchmarkEdgePump"]
	if ep == nil {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if ep.AllocsPerOp != 3 || ep.BytesPerOp != 120 {
		t.Fatalf("repeated runs should keep the minimum, got allocs=%v B=%v", ep.AllocsPerOp, ep.BytesPerOp)
	}
	if ns := got["BenchmarkNoSuffix"]; ns == nil || ns.AllocsPerOp != -1 || ns.BytesPerOp != -1 {
		t.Fatalf("a line without -benchmem columns should parse with both metrics absent (-1), got %+v", ns)
	}
}

// writeTestBaseline writes a one-benchmark baseline gating both metrics and
// returns its path.
func writeTestBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	base := `{
  "benchmarks": {
    "BenchmarkEdgePump": {"allocs_per_op": 2, "bytes_per_op": 64}
  }
}
`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runGate(t *testing.T, baseline, input string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run([]string{"-baseline", baseline}, strings.NewReader(input), &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunExitStatuses(t *testing.T) {
	baseline := writeTestBaseline(t)

	t.Run("within threshold", func(t *testing.T) {
		code, out, _ := runGate(t, baseline, "BenchmarkEdgePump-8 1000 2 allocs/op 70 B/op\n")
		if code != exitOK {
			t.Fatalf("exit %d, want %d", code, exitOK)
		}
		if !strings.Contains(out, "within +15%") {
			t.Fatalf("missing pass summary in stdout:\n%s", out)
		}
	})

	t.Run("ten times slower passes", func(t *testing.T) {
		code, out, errs := runGate(t, baseline, "BenchmarkEdgePump-8 1000 10000 ns/op 2 allocs/op 64 B/op\n")
		if code != exitOK {
			t.Fatalf("exit %d, want %d: a 10x slower ns/op with flat allocations must pass\n%s", code, exitOK, errs)
		}
		if strings.Contains(out, "ns/op") {
			t.Fatalf("ns/op appears in the gate table:\n%s", out)
		}
	})

	t.Run("regression", func(t *testing.T) {
		code, _, errs := runGate(t, baseline, "BenchmarkEdgePump-8 1000 1000 ns/op 3 allocs/op 80 B/op\n")
		if code != exitRegression {
			t.Fatalf("exit %d, want %d", code, exitRegression)
		}
		// One summary line per regressed benchmark, naming every bad metric.
		if !strings.Contains(errs, "FAIL BenchmarkEdgePump: allocs/op 3 > 2.3 (+50% over 2); B/op 80 > 73.6 (+25% over 64)") {
			t.Fatalf("missing per-benchmark summary line in stderr:\n%s", errs)
		}
	})

	t.Run("malformed input", func(t *testing.T) {
		code, _, errs := runGate(t, baseline, "BenchmarkEdgePump-8 1000 oops ns/op\n")
		if code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
		if !strings.Contains(errs, "bad value") {
			t.Fatalf("stderr does not explain the parse failure:\n%s", errs)
		}
	})

	t.Run("gated metric missing", func(t *testing.T) {
		code, _, errs := runGate(t, baseline, "BenchmarkEdgePump-8 1000 2 allocs/op\n")
		if code != exitIncomplete {
			t.Fatalf("exit %d, want %d", code, exitIncomplete)
		}
		if !strings.Contains(errs, "B/op gated but missing from input") {
			t.Fatalf("stderr does not name the missing metric:\n%s", errs)
		}
	})

	t.Run("timing only", func(t *testing.T) {
		// Without -benchmem the line carries nothing the gate checks.
		code, _, errs := runGate(t, baseline, "BenchmarkEdgePump-8 1000 1050 ns/op\n")
		if code != exitIncomplete {
			t.Fatalf("exit %d, want %d", code, exitIncomplete)
		}
		if !strings.Contains(errs, "allocs/op gated but missing from input; B/op gated but missing from input") {
			t.Fatalf("stderr does not name both missing metrics:\n%s", errs)
		}
	})

	t.Run("no bench lines", func(t *testing.T) {
		code, _, _ := runGate(t, baseline, "goos: linux\nPASS\n")
		if code != exitIncomplete {
			t.Fatalf("exit %d, want %d", code, exitIncomplete)
		}
	})

	t.Run("no overlap with baseline", func(t *testing.T) {
		code, _, _ := runGate(t, baseline, "BenchmarkSomethingElse-8 10 5 allocs/op 64 B/op\n")
		if code != exitIncomplete {
			t.Fatalf("exit %d, want %d", code, exitIncomplete)
		}
	})

	t.Run("benchmark missing from baseline", func(t *testing.T) {
		in := "BenchmarkEdgePump-8 1000 2 allocs/op 64 B/op\nBenchmarkEdgePumpNew-8 1000 9 allocs/op 640 B/op\n"
		code, _, errs := runGate(t, baseline, in)
		if code != exitIncomplete {
			t.Fatalf("exit %d, want %d: a benchmark with no baseline row must not run ungated", code, exitIncomplete)
		}
		if !strings.Contains(errs, "FAIL BenchmarkEdgePumpNew: no row in") {
			t.Fatalf("stderr does not name the unbaselined benchmark:\n%s", errs)
		}
	})

	t.Run("regression beats missing baseline row", func(t *testing.T) {
		in := "BenchmarkEdgePump-8 1000 3 allocs/op 64 B/op\nBenchmarkEdgePumpNew-8 1000 9 allocs/op 640 B/op\n"
		if code, _, _ := runGate(t, baseline, in); code != exitRegression {
			t.Fatalf("exit %d, want %d", code, exitRegression)
		}
	})

	t.Run("regression beats missing metric", func(t *testing.T) {
		code, _, _ := runGate(t, baseline, "BenchmarkEdgePump-8 1000 3 allocs/op\n")
		if code != exitRegression {
			t.Fatalf("exit %d, want %d", code, exitRegression)
		}
	})
}

func TestSummaryZeroBaseline(t *testing.T) {
	r := &result{name: "BenchmarkStatePutGet", failures: []metricFailure{
		{metric: "allocs/op", got: 3, base: 0},
	}}
	want := "BenchmarkStatePutGet: allocs/op 3 (baseline 0)"
	if got := r.summary(); got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

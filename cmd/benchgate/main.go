// Command benchgate is the allocation-regression gate: it parses `go test
// -bench -benchmem` output (stdin or -input), compares every benchmark that
// appears in the checked-in baseline, and exits non-zero when allocs/op or
// B/op regresses. CI runs it instead of fire-and-forget smoke benches, so
// hot-path allocation regressions fail the build instead of scrolling past.
//
// Usage:
//
//	go test -run '^$' -bench 'Scheduler|EdgePump' -benchmem ./... | benchgate -baseline bench_baseline.json
//	benchgate -baseline bench_baseline.json -input bench.txt
//	go test -run '^$' -bench . -benchmem ./... | benchgate -baseline bench_baseline.json -update
//
// The baseline records allocs/op and B/op per benchmark. A non-zero baseline
// fails beyond +15% (the slack covers run-to-run jitter in whole-run
// benchmarks); a zero baseline is exact, so a zero-alloc benchmark fails on
// the first allocation that sneaks back in. A negative (or absent) metric in
// the baseline is not gated for that benchmark. ns/op is not gated: on a
// shared runner it moves by tens of percent with no code change, so a time
// gate fails on noise. Simulator speed is measured end to end by
// `go run ./benchmark -compare` instead.
//
// Exit status distinguishes the failure class so CI steps and scripts can
// react without scraping stderr:
//
//	0  every compared benchmark within its budget
//	1  at least one benchmark regressed beyond its budget
//	2  usage or environment error (bad flags, unreadable files, malformed input)
//	3  input incomplete: no bench lines, no overlap with the baseline, or a
//	   gated metric absent from the input (e.g. -benchmem dropped, leaving
//	   only ns/op) — the run proves nothing, which must not pass silently
//
// When both regressions and missing metrics occur, the regression wins (exit
// 1): the run did prove a slowdown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Exit statuses, one per failure class (see the package comment).
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
	exitIncomplete = 3
)

// slack is the allowed fractional regression over a non-zero baseline.
const slack = 0.15

// Baseline is the checked-in reference (bench_baseline.json).
type Baseline struct {
	// Note documents how to regenerate the file.
	Note       string                `json:"note,omitempty"`
	Benchmarks map[string]*Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's reference numbers. A negative value means
// the metric is not gated for that benchmark; metrics absent from the
// baseline JSON decode as ungated rather than as a zero budget.
type Benchmark struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// UnmarshalJSON defaults missing metrics to -1 (ungated), so baselines
// written before a metric existed keep gating exactly what they recorded.
func (b *Benchmark) UnmarshalJSON(data []byte) error {
	type alias Benchmark
	a := alias{AllocsPerOp: -1, BytesPerOp: -1}
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*b = Benchmark(a)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, returning the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "bench_baseline.json", "baseline JSON to compare against")
	input := fs.String("input", "", "benchmark output file (default stdin)")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of gating")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	in := stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: open input: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: parse benchmark output: %v\n", err)
		return exitUsage
	}
	if len(measured) == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmark result lines in input — did the bench step run with -bench?\n")
		return exitIncomplete
	}

	if *update {
		if err := writeBaseline(*baselinePath, measured); err != nil {
			fmt.Fprintf(stderr, "benchgate: write baseline: %v\n", err)
			return exitUsage
		}
		fmt.Fprintf(stdout, "benchgate: baseline %s updated with %d benchmark(s)\n", *baselinePath, len(measured))
		return exitOK
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: read baseline: %v\n", err)
		return exitUsage
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchgate: decode baseline %s: %v\n", *baselinePath, err)
		return exitUsage
	}
	results, compared := compare(&base, measured, stdout)
	if compared == 0 {
		fmt.Fprintf(stderr, "benchgate: none of the %d baseline benchmarks appeared in the input\n", len(base.Benchmarks))
		return exitIncomplete
	}
	regressed, incomplete := 0, 0
	for _, r := range results {
		if len(r.failures) == 0 {
			continue
		}
		if r.regressed() {
			regressed++
		} else {
			incomplete++
		}
		fmt.Fprintf(stderr, "benchgate: FAIL %s\n", r.summary())
	}
	switch {
	case regressed > 0:
		fmt.Fprintf(stderr, "benchgate: %d of %d benchmark(s) regressed beyond +%d%%\n", regressed, compared, int(slack*100))
		return exitRegression
	case incomplete > 0:
		fmt.Fprintf(stderr, "benchgate: %d benchmark(s) missing gated metrics in the input\n", incomplete)
		return exitIncomplete
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmark(s) within +%d%% of baseline\n", compared, int(slack*100))
	return exitOK
}

// metricFailure is one gated metric gone bad: either over budget or absent
// from the input entirely.
type metricFailure struct {
	metric  string
	got     float64
	base    float64
	missing bool
}

// result is one compared benchmark's verdict.
type result struct {
	name     string
	failures []metricFailure
}

// regressed reports whether any failure is a real over-budget measurement
// (as opposed to a gated metric missing from the input).
func (r *result) regressed() bool {
	for _, f := range r.failures {
		if !f.missing {
			return true
		}
	}
	return false
}

// summary renders the benchmark's verdict as a single line:
//
//	BenchmarkStateCheckpoint: allocs/op 300 > 253 (+36% over 220); B/op gated but missing from input
func (r *result) summary() string {
	parts := make([]string, 0, len(r.failures))
	for _, f := range r.failures {
		if f.missing {
			parts = append(parts, fmt.Sprintf("%s gated but missing from input", f.metric))
			continue
		}
		if f.base > 0 {
			over := (f.got - f.base) / f.base * 100
			parts = append(parts, fmt.Sprintf("%s %.4g > %.4g (+%.0f%% over %.4g)",
				f.metric, f.got, f.base*(1+slack), over, f.base))
		} else {
			// A zero budget (e.g. a zero-alloc baseline) has no meaningful
			// percentage: any measurement at all is the regression.
			parts = append(parts, fmt.Sprintf("%s %.4g (baseline %.4g)", f.metric, f.got, f.base))
		}
	}
	return fmt.Sprintf("%s: %s", r.name, strings.Join(parts, "; "))
}

// compare walks the baseline in name order, prints the per-metric table to
// w, and returns one result per compared benchmark plus the compare count.
func compare(base *Baseline, measured map[string]*Benchmark, w io.Writer) ([]*result, int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var results []*result
	compared := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			continue // this CI step ran a subset of the gated benchmarks
		}
		compared++
		r := &result{name: name}
		check := func(metric string, got, want float64) {
			if want < 0 {
				return // metric not gated for this benchmark
			}
			if got < 0 {
				// A gated metric missing from the input means the bench step
				// lost its flag (e.g. -benchmem): passing silently would
				// defeat the gate exactly when it matters.
				r.failures = append(r.failures, metricFailure{metric: metric, base: want, missing: true})
				fmt.Fprintf(w, "%-34s %-12s %14s  baseline %14.4g  FAIL\n", name, metric, "missing", want)
				return
			}
			status := "ok"
			if got > want*(1+slack) {
				status = "FAIL"
				r.failures = append(r.failures, metricFailure{metric: metric, got: got, base: want})
			}
			fmt.Fprintf(w, "%-34s %-12s %14.4g  baseline %14.4g  %s\n", name, metric, got, want, status)
		}
		check("allocs/op", got.AllocsPerOp, want.AllocsPerOp)
		check("B/op", got.BytesPerOp, want.BytesPerOp)
		results = append(results, r)
	}
	return results, compared
}

// parseBench extracts allocs/op and B/op per benchmark from `go test -bench`
// output. Every result line is checked for well-formed values, and the two
// gated ones must be finite and non-negative. Other units (ns/op, custom
// metrics) are not kept; a line without -benchmem's columns still yields an
// entry, so the gate can name what is missing. Names are
// normalized by stripping the -GOMAXPROCS suffix; repeated runs of one
// benchmark keep the minimum (the conventional stable estimate).
func parseBench(r io.Reader) (map[string]*Benchmark, error) {
	out := make(map[string]*Benchmark)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := &Benchmark{AllocsPerOp: -1, BytesPerOp: -1}
		// Lines read "<name> <N> <value> <unit> <value> <unit> ...".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "allocs/op":
				b.AllocsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			default:
				continue
			}
			// NaN passes every comparison and a negative value reads as "not
			// measured", so neither may reach the gate; nor may infinity.
			if !(v >= 0 && v <= math.MaxFloat64) {
				return nil, fmt.Errorf("%s: %s %q is not a count", name, fields[i+1], fields[i])
			}
		}
		if prev, ok := out[name]; ok {
			if b.AllocsPerOp >= 0 && (prev.AllocsPerOp < 0 || b.AllocsPerOp < prev.AllocsPerOp) {
				prev.AllocsPerOp = b.AllocsPerOp
			}
			if b.BytesPerOp >= 0 && (prev.BytesPerOp < 0 || b.BytesPerOp < prev.BytesPerOp) {
				prev.BytesPerOp = b.BytesPerOp
			}
			continue
		}
		out[name] = b
	}
	return out, sc.Err()
}

func writeBaseline(path string, measured map[string]*Benchmark) error {
	base := Baseline{
		Note:       "regenerate with the bench-gate job's go test lines (.github/workflows/ci.yml) piped into: go run ./cmd/benchgate -baseline bench_baseline.json -update",
		Benchmarks: measured,
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

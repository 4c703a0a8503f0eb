package main

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseBench feeds arbitrary text to the gate's parser. It must return
// an error, never panic, and whatever it accepts must survive a round trip:
// rendering every parsed benchmark as a go test result line and parsing
// that again gives back the same names, allocs/op and B/op.
func FuzzParseBench(f *testing.F) {
	// Lines as the bench-gate job writes them (go1.24, 2 CPUs).
	f.Add(strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: drrs/internal/simtime",
		"cpu: Intel(R) Xeon(R) Processor",
		"BenchmarkScheduler-2              \t  200000\t        34.55 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkSchedulerHold-2          \t  200000\t        34.52 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkNewRNG-2                 \t  200000\t        41.07 ns/op\t      32 B/op\t       1 allocs/op",
		"PASS",
		"ok  \tdrrs/internal/simtime\t0.110s",
	}, "\n"))
	f.Add("BenchmarkEngineThroughput-2   \t       1\t 412903551 ns/op\t 3785720 B/op\t   16429 allocs/op\n")
	f.Add("BenchmarkStateMigrateGroup-2   \t  200000\t       212.4 ns/op\t       7 B/op\t       0 allocs/op\n")
	f.Add("BenchmarkEdgePump-8 1000 12x34 ns/op 0 allocs/op\n")
	f.Add("BenchmarkNoSuffix 1000 900 ns/op\nBenchmarkNoSuffix-4 1000 900 ns/op 2 allocs/op\n")
	f.Add("BenchmarkEdgePump-8 1000 NaN allocs/op -3 B/op\n")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		again, err := parseBench(strings.NewReader(render(got)))
		if err != nil {
			t.Fatalf("rendered lines do not parse: %v\n%s", err, render(got))
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the parse\nfirst:\n%ssecond:\n%s", render(got), render(again))
		}
	})
}

// render writes parsed benchmarks back as go test result lines, with a
// GOMAXPROCS suffix and only the metrics that were present.
func render(m map[string]*Benchmark) string {
	var b strings.Builder
	for _, name := range sortedNames(m) {
		bm := m[name]
		b.WriteString(name + "-2 1 1 ns/op")
		if bm.BytesPerOp >= 0 {
			b.WriteString(" " + strconv.FormatFloat(bm.BytesPerOp, 'g', -1, 64) + " B/op")
		}
		if bm.AllocsPerOp >= 0 {
			b.WriteString(" " + strconv.FormatFloat(bm.AllocsPerOp, 'g', -1, 64) + " allocs/op")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortedNames(m map[string]*Benchmark) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Command benchmark is the repo's performance benchmark: four workloads of
// whole simulator runs, measured end to end with tracing off and, in one
// extra traced pass, layer by layer. README.md in this directory documents
// every metric and workload; BENCHMARK.json at the repo root is the contract
// the growth driver runs it under.
//
//	go run ./benchmark                                  # everything, ≈4 min
//	go run ./benchmark -workload wide-cluster -reps 3   # one workload
//	go run ./benchmark -out a.json; go run ./benchmark -out b.json
//	go run ./benchmark -compare a.json b.json           # A/A or before/after
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runContext records where and how the numbers were taken.
type runContext struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit names the source the numbers belong to: the revision stamped into
// the binary, else (go run does not stamp) what git says about the working
// directory, else "unknown" — the driver's checkout is not a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// document is the -out file: what -compare reads.
type document struct {
	Context   runContext       `json:"context"`
	Workloads []workloadReport `json:"workloads"`
}

// resultLine is the last line of standard output, in the driver's format.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Int64("seed", 1, "base seed; cell seeds are seed+offset")
		reps     = fs.Int("reps", 5, "timed passes per workload (ignored when -seconds is set)")
		seconds  = fs.Float64("seconds", 0, "measure timed passes for this many host seconds instead of -reps (at least two passes)")
		trace    = fs.String("trace", "", `"0": timed passes only, print end-to-end metrics; "1": add the traced pass, print per-layer metrics; default: both`)
		out      = fs.String("out", "", "write the full report as JSON (the input of -compare)")
		traceDir = fs.String("trace-dir", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
		writeRef = fs.String("write-reference", "", "write the per-cell reference (digest, records, events) measured by this run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}
	if *reps < 2 || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: need -reps >= 2 (digests are compared across passes) and -seconds >= 0")
		return 2
	}
	selected := workloads()
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			var names []string
			for _, w := range workloads() {
				names = append(names, w.Name)
			}
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		selected = []workloadDef{w}
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}

	doc := document{Context: runContext{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: *seed, Reps: *reps, Seconds: *seconds,
	}}
	printContext(stdout, doc.Context)
	traced := *trace != "0"
	if traced {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	for _, w := range selected {
		opt := options{Seed: *seed, Reps: *reps, Seconds: *seconds, Traced: traced, Reference: ref}
		if traced {
			opt.TracePath = filepath.Join(*traceDir, "trace-"+w.Name+".json")
		}
		rep := measureWorkload(w, opt)
		printReport(stdout, &rep, opt.TracePath)
		doc.Workloads = append(doc.Workloads, rep)
	}

	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if *writeRef != "" {
		if err := writeJSON(*writeRef, referenceFrom(*seed, doc.Workloads)); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}

	line := resultFor(doc.Workloads, *trace)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFor assembles the driver's line: with -trace 0 every bounded
// end-to-end metric, with -trace 1 every per-layer metric plus the exact
// simulated trio, by default all of them. With more than one workload the
// names carry a "<workload>:" prefix.
func resultFor(reports []workloadReport, trace string) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]resultValue{}}
	for i := range reports {
		r := &reports[i]
		line.Attempted += r.Cells
		line.Failed += r.CellsFailed
		line.Correct = line.Correct && r.correct()
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Name + ":"
		}
		for _, m := range r.EndToEnd {
			bounded := m.Kind == kindEndToEnd
			if (trace == "0" && !bounded) || (trace == "1" && bounded) {
				continue
			}
			line.Metrics[prefix+m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
		if trace != "0" {
			for _, m := range r.PerLayer {
				line.Metrics[prefix+m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	return line
}

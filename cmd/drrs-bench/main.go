// Command drrs-bench regenerates the paper's evaluation figures and tables
// on the simulated engine, and runs the dynamic-scenario track beyond them.
//
// Usage:
//
//	drrs-bench -list
//	drrs-bench -experiment all
//	drrs-bench -experiment fig10 -workload q7
//	drrs-bench -experiment fig15 -seeds 1
//	drrs-bench -experiment multiwave -workload flash-crowd
//	drrs-bench -experiment sweep -workload flash-crowd,diurnal -mechanisms drrs,meces
//	drrs-bench -experiment topology -workload rack-skew
//	drrs-bench -experiment multiwave -workload bigcluster-128 -topology rack8x16
//	drrs-bench -experiment control -workload flash-crowd-reactive
//	drrs-bench -experiment control -workload diurnal-autoscale -policy backlog
//	drrs-bench -experiment multiwave -workload flash-crowd -driver controller -policy threshold
//	drrs-bench -experiment all -parallel 8
//	drrs-bench -experiment control -seeds 2 -json control.json
//	drrs-bench -experiment fig15 -parallel 1 -cpuprofile cpu.out -memprofile mem.out
//	drrs-bench -experiment multiwave -workload million-users -replay mu.trace
//	drrs-bench -chaos 8 -workload node-loss-mid-migrate,straggler-rack,flaky-uplink -json chaos.json
//	drrs-bench -experiment search -workload flash-crowd-reactive -searchmode grid -json search.json
//
// drrs-bench runs many simulations; drrs-sim runs exactly one (including a
// trace recording and a counterfactual diff).
//
// Experiments: fig2, fig10 (also emits Figs 11–13 from the same runs),
// fig14, fig15, multiwave, sweep, topology (rack-local vs spread placement),
// control (mechanisms under reactive closed-loop driving), search (offline
// policy search: grid and/or evolutionary sweeps over controller knobs with
// per-scenario Pareto fronts; -searchmode picks the sweep, -searchseed drives
// the evolutionary RNG stream), ablation, all.
// -workload accepts any registered scenario (see -list); fig10's default
// "all" covers the paper's q7, q8, twitch; sweep's default "all" covers
// every registered scenario. -experiment all runs a fixed figure set, so
// naming a -workload with it is a usage error, as is any unknown name. The
// shared override flags rewrite each scenario where a run constructs it:
// -topology/-placement name its cluster substrate / placement policy;
// -driver/-policy how it is driven (scripted wave program vs closed-loop
// controller and which control policy decides); -faults its fault plan (a
// spec like "crash@12s:node=r0n1,restart=6s;ckpt=2s", or "off" to drop a
// chaos scenario's own). What a mode varies itself is the later, more
// specific rewrite and wins: a search candidate's policy, the topology
// figure's placement columns.
//
// -chaos N is the deterministic chaos search: N seeds (from -seed) ×
// scenarios (-workload, default the chaos trio) × mechanisms (-mechanisms,
// default every mechanism except no-scale) with randomized generated fault plans, every oracle checked on every run,
// each case executed twice for the determinism oracle, and any failing plan
// shrunk to a minimal self-reproducing spec string. Exits 1 when violations
// are found; -json writes them as a machine-readable artifact. -faults with
// -chaos is a usage error: the search generates its own plans, and each
// printed repro line replays one through drrs-sim -faults.
//
// -replay feeds a trace recorded by drrs-sim -record to every run of a
// figure; scenarios that drive a custom generator cannot take one.
//
// -json writes every figure's structured rows (plus decision counts where
// applicable) as a machine-readable record, so CI jobs consume figures
// without scraping the text tables.
//
// Independent (workload, mechanism, seed) runs execute on a worker pool of
// -parallel goroutines (default GOMAXPROCS; 1 forces sequential). Every
// simulation is single-threaded and seeded, so figure numbers are identical
// at any parallelism. -cpuprofile/-memprofile capture pprof profiles of the
// whole run (use -parallel 1 so samples attribute to one simulation at a
// time); EXPERIMENTS.md documents the workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"drrs/internal/bench"
	"drrs/internal/bench/cliopts"
	"drrs/internal/chaos"
	"drrs/internal/policysearch"
)

// figuresJSON is the top-level -json document: every figure's structured
// rows, so CI and analysis scripts consume numbers instead of scraping the
// printed tables.
type figuresJSON struct {
	GeneratedAt string       `json:"generated_at"`
	Experiment  string       `json:"experiment"`
	Seeds       []int64      `json:"seeds"`
	Figures     []figureJSON `json:"figures"`
}

// figureJSON is one figure's machine-readable rows.
type figureJSON struct {
	Title string               `json:"title"`
	Rows  map[string]bench.Row `json:"rows,omitempty"`
}

func main() {
	experiment := flag.String("experiment", "all", "fig2 | fig10 | fig14 | fig15 | multiwave | sweep | topology | search | ablation | all")
	workloadName := flag.String("workload", "all", "registered scenario name, comma list, or all (see -list)")
	mechanisms := flag.String("mechanisms", "", "comma list of mechanisms for multiwave/sweep/topology (default drrs,meces,megaphone) and -chaos (default all but no-scale) from: "+strings.Join(bench.MechanismNames(), " | "))
	seeds := flag.Int("seeds", 3, "number of repeated runs per configuration")
	baseSeed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	var opts cliopts.Common
	opts.Bind(flag.CommandLine)
	jsonOut := flag.String("json", "", "write every figure's structured rows as machine-readable JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	chaosN := flag.Int("chaos", 0, "run the deterministic chaos search over N seeds starting at -seed (0 disables)")
	searchMode := flag.String("searchmode", "both", "policy-search sweep for -experiment search: grid | evolve | both")
	searchSeed := flag.Int64("searchseed", 1, "seed for the evolutionary policy search's RNG stream")
	searchSpace := flag.String("searchspace", "full", "policy-search knob menu: full | smoke (the CI-sized subset)")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-22s %-20s %-44s %s\n", "scenario", "driving", "layout", "description")
		for _, def := range bench.Definitions() {
			sc := def.New(*baseSeed)
			layout := def.Layout
			if layout == "" {
				layout = "flat single node"
			}
			fmt.Printf("%-22s %-20s %-44s %s\n", def.Name, sc.ProgramString(), layout, def.Description)
			fmt.Printf("%-22s %-20s traffic: %s\n", "", "", sc.TrafficString())
			if fs := sc.Faults.Spec(); fs != "" {
				fmt.Printf("%-22s %-20s faults: %s\n", "", "", fs)
			}
		}
		return
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "drrs-bench: -seeds must be >= 1 (got %d): every figure needs at least one run per configuration\n", *seeds)
		os.Exit(2)
	}
	switch *experiment {
	case "fig2", "fig10", "fig14", "fig15", "multiwave", "sweep", "topology", "control", "search", "ablation", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	switch *searchMode {
	case "grid", "evolve", "both":
	default:
		fmt.Fprintf(os.Stderr, "drrs-bench: -searchmode must be grid, evolve, or both (got %q)\n", *searchMode)
		os.Exit(2)
	}
	var space policysearch.Space
	switch *searchSpace {
	case "full": // Search fills in DefaultSpace for the zero value.
	case "smoke":
		space = policysearch.SmokeSpace()
	default:
		fmt.Fprintf(os.Stderr, "drrs-bench: -searchspace must be full or smoke (got %q)\n", *searchSpace)
		os.Exit(2)
	}
	if *chaosN < 0 {
		fmt.Fprintf(os.Stderr, "drrs-bench: -chaos must be >= 0 (got %d)\n", *chaosN)
		os.Exit(2)
	}
	if *workloadName != "all" && len(splitList(*workloadName)) == 0 {
		fmt.Fprintf(os.Stderr, "drrs-bench: -workload %q selects no scenarios\n", *workloadName)
		os.Exit(2)
	}
	if *experiment == "all" && *workloadName != "all" && *chaosN == 0 {
		fmt.Fprintf(os.Stderr, "drrs-bench: -experiment all runs the fixed figure set (fig2, fig10, fig14, multiwave, topology, control, fig15) and ignores -workload; name an -experiment\n")
		os.Exit(2)
	}
	if *experiment == "topology" && opts.Placement != "" {
		// The figure's own placement columns are the later rewrite and win.
		fmt.Fprintf(os.Stderr, "drrs-bench: -placement is ignored by -experiment topology (it compares policies itself)\n")
	}
	if *chaosN > 0 && opts.Faults != "" {
		fmt.Fprintf(os.Stderr, "drrs-bench: -chaos generates its own fault plans; -faults replays one plan without -chaos\n")
		os.Exit(2)
	}
	overrides, err := opts.Overrides()
	if err != nil {
		fmt.Fprintf(os.Stderr, "drrs-bench: %v\n", err)
		os.Exit(2)
	}
	// One outcome table for the process: a cell two figures share (fig10's
	// and fig14's twitch/drrs) runs once.
	h := bench.Harness{Workers: *parallel, Overrides: overrides}.WithTable()
	// Resolve every named scenario once, here: past this point no mode meets
	// an unknown name or an override a scenario cannot take.
	for _, name := range workloads(*workloadName, nil) {
		if _, err := h.Scenario(name, *baseSeed); err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: %v\n", err)
			os.Exit(2)
		}
	}

	var seedList []int64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, *baseSeed+int64(i))
	}
	mechList := splitList(*mechanisms)
	for _, m := range mechList {
		if !slices.Contains(bench.MechanismNames(), m) {
			fmt.Fprintf(os.Stderr, "drrs-bench: bench: unknown mechanism %q\n", m)
			os.Exit(2)
		}
	}

	// Chaos mode branches before profiling setup: it owns its exit code
	// (1 = violations found) and its own -json artifact shape.
	if *chaosN > 0 {
		os.Exit(runChaos(h, *chaosN, *workloadName, mechList, *baseSeed, *jsonOut))
	}

	// Profiling setup runs after every usage-error exit above, and once it
	// has started, nothing may call os.Exit directly: the deferred chain
	// must unwind so profiles are flushed. Run order at exit (LIFO): figure
	// JSON, CPU-profile stop, exit-time heap dump, then exitCode — registered
	// first so it runs last.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()
	var cpuFile *os.File
	if *cpuProfile != "" {
		// Create/start before any flush defer is registered, so these two
		// usage-style exits cannot skip a pending flush.
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "drrs-bench: -memprofile: %v\n", err)
				exitCode = 1
				return
			}
			runtime.GC() // report live + cumulative allocations accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "drrs-bench: -memprofile: %v\n", err)
				exitCode = 1
				f.Close()
				return
			}
			f.Close()
			fmt.Printf("allocation profile written to %s\n", *memProfile)
		}()
	}
	if cpuFile != nil {
		defer func() {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Printf("cpu profile written to %s\n", *cpuProfile)
		}()
	}

	jsonRec := figuresJSON{
		//lint:allow nowallclock report metadata timestamp; never enters the simulation
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Experiment:  *experiment,
		Seeds:       seedList,
	}
	run := func(fn func() (bench.FigureResult, error)) {
		if exitCode != 0 {
			return
		}
		t0 := time.Now() //lint:allow nowallclock bench-runner wall budget: measures host time around a finished run
		res, err := fn()
		wall := time.Since(t0) //lint:allow nowallclock bench-runner wall budget: measures host time around a finished run
		if err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: %v\n", err)
			exitCode = 2
			return
		}
		jsonRec.Figures = append(jsonRec.Figures, figureJSON{Title: res.Title, Rows: res.Rows})
		fmt.Printf("==== %s (wall %v) ====\n%s\n", res.Title, wall.Round(time.Millisecond), res.Text)
	}
	defer func() {
		if *jsonOut == "" {
			return
		}
		data, err := json.MarshalIndent(jsonRec, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: writing figure JSON: %v\n", err)
			exitCode = 1
			return
		}
		fmt.Printf("figure rows written to %s\n", *jsonOut)
	}()

	fig15 := func() (bench.FigureResult, error) {
		return h.Fig15(*baseSeed,
			[]float64{6000, 10000, 12000},
			[]int{5 << 20, 15 << 20, 30 << 20},
			[]float64{0, 0.5, 1.0, 1.5})
	}
	switch *experiment {
	case "fig2":
		run(func() (bench.FigureResult, error) { return h.Fig2(seedList) })
	case "fig10":
		for _, wl := range workloads(*workloadName, []string{"q7", "q8", "twitch"}) {
			run(func() (bench.FigureResult, error) { return h.HeadToHead(wl, seedList) })
		}
	case "fig14":
		run(func() (bench.FigureResult, error) { return h.Fig14(seedList) })
	case "fig15":
		run(fig15)
	case "multiwave":
		for _, wl := range workloads(*workloadName, []string{"flash-crowd", "diurnal", "twitch-rebound"}) {
			run(func() (bench.FigureResult, error) { return h.MultiWave(wl, mechList, seedList) })
		}
	case "sweep":
		run(func() (bench.FigureResult, error) {
			return h.Sweep(workloads(*workloadName, bench.ScenarioNames()), mechList, seedList)
		})
	case "topology":
		for _, wl := range workloads(*workloadName, []string{"rack-skew", "hetero-tiers"}) {
			run(func() (bench.FigureResult, error) { return h.TopologyFigure(wl, mechList, seedList) })
		}
	case "control":
		for _, wl := range workloads(*workloadName, []string{"flash-crowd-reactive", "diurnal-autoscale", "oscillation-guard"}) {
			run(func() (bench.FigureResult, error) { return h.ControlFigure(wl, mechList, seedList) })
		}
	case "search":
		for _, wl := range workloads(*workloadName, []string{"flash-crowd-reactive"}) {
			mech := "drrs"
			if len(mechList) > 0 {
				mech = mechList[0]
			}
			run(func() (bench.FigureResult, error) {
				return policysearch.Search(h, policysearch.SearchConfig{
					Scenario: wl, Mechanism: mech, Seeds: seedList,
					Mode: *searchMode, SearchSeed: *searchSeed, Space: space,
				})
			})
		}
	case "ablation":
		run(func() (bench.FigureResult, error) { return h.Ablation(*baseSeed) })
	case "all":
		run(func() (bench.FigureResult, error) { return h.Fig2(seedList) })
		for _, wl := range []string{"q7", "q8", "twitch"} {
			run(func() (bench.FigureResult, error) { return h.HeadToHead(wl, seedList) })
		}
		run(func() (bench.FigureResult, error) { return h.Fig14(seedList) })
		run(func() (bench.FigureResult, error) { return h.MultiWave("flash-crowd", mechList, seedList) })
		run(func() (bench.FigureResult, error) { return h.TopologyFigure("rack-skew", mechList, seedList) })
		run(func() (bench.FigureResult, error) { return h.ControlFigure("flash-crowd-reactive", mechList, seedList) })
		run(fig15)
	default:
		// Unreachable: experiment names are validated before profiling starts.
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		exitCode = 2
	}
}

// chaosJSON is the -chaos -json artifact: the search bounds plus every
// violation with its self-reproducing spec and repro command line.
type chaosJSON struct {
	GeneratedAt string           `json:"generated_at"`
	Scenarios   []string         `json:"scenarios"`
	Mechanisms  []string         `json:"mechanisms"`
	Seeds       []int64          `json:"seeds"`
	Cases       int              `json:"cases"`
	Runs        int              `json:"runs"`
	WallMS      float64          `json:"wall_ms"`
	Violations  []chaosViolation `json:"violations"`
}

// chaosViolation is one oracle failure in the artifact.
type chaosViolation struct {
	Scenario   string `json:"scenario"`
	Mechanism  string `json:"mechanism"`
	Seed       int64  `json:"seed"`
	Oracle     string `json:"oracle"`
	Detail     string `json:"detail"`
	Spec       string `json:"spec"`
	Shrunk     bool   `json:"shrunk"`
	ShrinkRuns int    `json:"shrink_runs,omitempty"`
	Repro      string `json:"repro"`
}

// runChaos is the -chaos N mode: generated fault plans over N seeds ×
// scenarios × mechanisms, every oracle on every run, shrinking armed.
// Returns the process exit code: 0 clean, 1 violations found.
func runChaos(h bench.Harness, n int, workloadName string, mechList []string, baseSeed int64, jsonOut string) int {
	cfg := chaos.Config{Mechanisms: mechList, Workers: h.Workers, Overrides: h.Overrides,
		Scenarios: workloads(workloadName, nil)}
	for i := 0; i < n; i++ {
		cfg.Seeds = append(cfg.Seeds, baseSeed+int64(i))
	}
	t0 := time.Now() //lint:allow nowallclock bench-runner wall budget: measures host time around a finished search
	res := chaos.Search(cfg)
	wall := time.Since(t0) //lint:allow nowallclock bench-runner wall budget: measures host time around a finished search
	fmt.Printf("chaos search: %d cases (%d runs) over seeds %d..%d, wall %v\n",
		res.Cases, res.Runs, baseSeed, baseSeed+int64(n)-1, wall.Round(time.Millisecond))
	if len(res.Violations) == 0 {
		fmt.Println("no oracle violations")
	}
	for i, v := range res.Violations {
		fmt.Printf("violation %d [%s/%s seed=%d] %s: %s\n",
			i+1, v.Scenario, v.Mechanism, v.Seed, v.Oracle, v.Detail)
		if v.Shrunk {
			fmt.Printf("  shrunk to %d fault(s) in %d runs\n", len(v.Plan.Faults), v.ShrinkRuns)
		}
		fmt.Printf("  repro: %s\n", v.Repro())
	}
	if jsonOut != "" {
		rec := chaosJSON{
			//lint:allow nowallclock report metadata timestamp; never enters the simulation
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Scenarios:   res.Scenarios,
			Mechanisms:  res.Mechanisms,
			Seeds:       cfg.Seeds,
			Cases:       res.Cases,
			Runs:        res.Runs,
			WallMS:      float64(wall.Microseconds()) / 1000,
			Violations:  []chaosViolation{},
		}
		for _, v := range res.Violations {
			rec.Violations = append(rec.Violations, chaosViolation{
				Scenario: v.Scenario, Mechanism: v.Mechanism, Seed: v.Seed,
				Oracle: v.Oracle, Detail: v.Detail, Spec: v.Spec,
				Shrunk: v.Shrunk, ShrinkRuns: v.ShrinkRuns, Repro: v.Repro(),
			})
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "drrs-bench: writing chaos JSON: %v\n", err)
			return 1
		}
		fmt.Printf("chaos record written to %s\n", jsonOut)
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}

// workloads resolves the -workload flag: "all" expands to def, anything else
// splits on commas (main has already rejected an empty selection).
func workloads(name string, def []string) []string {
	if name == "all" {
		return def
	}
	return splitList(name)
}

// splitList splits a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

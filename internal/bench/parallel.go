package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"drrs/internal/scaling"
)

// Harness is what the figure, sweep, ablation, policy-search and
// counterfactual entry points hang off; the zero value changes no scenario.
//
// Parallelism is across runs only: each simulation owns a private scheduler,
// clock, RNG streams, and metrics, and stays single-threaded and
// deterministic. Results are therefore bit-for-bit identical at any worker
// count; only wall time changes.
type Harness struct {
	// Workers is the pool size (cmd/drrs-bench -parallel): <= 0 means
	// GOMAXPROCS, 1 forces sequential execution.
	Workers   int
	Overrides Overrides
}

// Scenario builds a registered scenario with the overrides applied — the
// construction site every further rewrite starts from.
func (h Harness) Scenario(name string, seed int64) (Scenario, error) {
	return h.Overrides.Apply(ScenarioByName(name, seed))
}

// Work sizes a set of runs in the two units perf accounting divides by wall
// time. Records (what the sources emitted) are fixed by the traffic, so
// records per second compares across PRs; Events (scheduler events fired) are
// what the simulator spent on them, and fall whenever an optimisation stops
// scheduling a no-op — events per second compares only within one commit.
type Work struct {
	Events  uint64
	Records uint64
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Events += o.Events
	w.Records += o.Records
}

// Work sizes one finished run.
func (o Outcome) Work() Work {
	return Work{Events: o.Events, Records: uint64(o.Throughput.Total())}
}

// SumWork totals the work of the outcomes.
func SumWork(outs []Outcome) (w Work) {
	for i := range outs {
		w.Add(outs[i].Work())
	}
	return w
}

// RunSpec names one independent (scenario, mechanism) run for RunParallel.
// The mechanism is constructed inside the worker, fresh per scaling wave
// (mechanisms carry per-operation state, so a shared instance would race —
// and could not drive a second wave).
type RunSpec struct {
	Scenario  Scenario
	Mechanism string
}

// run executes one spec with a fresh mechanism per wave.
func (sp RunSpec) run() Outcome {
	return sp.Scenario.RunWith(func() scaling.Mechanism { return Mechanisms(sp.Mechanism) })
}

// RunParallel executes specs across a worker pool and returns outcomes in
// spec order. workers <= 0 selects GOMAXPROCS.
func RunParallel(specs []RunSpec, workers int) []Outcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]Outcome, len(specs))
	if workers <= 1 {
		for i, sp := range specs {
			out[i] = sp.run()
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = specs[i].run()
			}
		}()
	}
	wg.Wait()
	return out
}

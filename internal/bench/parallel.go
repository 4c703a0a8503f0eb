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
// construction site every further rewrite starts from. An unknown name or an
// override the scenario cannot take is an error.
func (h Harness) Scenario(name string, seed int64) (Scenario, error) {
	def, err := lookup(name)
	if err != nil {
		return Scenario{}, err
	}
	return h.Overrides.Apply(def.New(seed))
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

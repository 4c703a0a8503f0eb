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
	// table memoizes figure runs by cell (WithTable); nil gives every figure
	// call a table of its own.
	table *sync.Map
}

// WithTable returns h backed by an empty outcome table. Figures called on
// it, or on a copy, run each distinct cell once and share its Outcome after
// that, so figures drawn from the same runs (Figs 10–14) run them once.
// Projections only read outcomes. Set Overrides first: the table keys
// outcomes by cell alone.
func (h Harness) WithTable() Harness {
	h.table = new(sync.Map)
	return h
}

// cell names one figure run: a registered scenario at a seed under a
// mechanism, redeployed under Placement when that is set (WithPlacement).
// Grid (a Fig 15 point of the sensitivity scenario) and Knob (an ablation
// setting of the mechanism) are zero for the registered run.
type cell struct {
	Scenario  string
	Seed      int64
	Mechanism string
	Placement string
	Grid      gridPoint
	Knob      knob
}

// tableEntry is one cell's outcome, run by whichever caller asks first;
// later callers wait for it.
type tableEntry struct {
	once sync.Once
	out  Outcome
}

// outcomes returns each cell's outcome from h's table (a table for this call
// alone when h has none), running the missing ones across Workers. An unknown scenario or an override it cannot take
// fails the request before anything runs.
func (h Harness) outcomes(cells []cell) ([]Outcome, error) {
	runs := make([]func() Outcome, len(cells))
	for i, c := range cells {
		sc, err := h.Scenario(c.Scenario, c.Seed)
		if err == nil && c.Grid != (gridPoint{}) {
			sc, err = h.Overrides.Apply(SensitivityScenario(c.Seed, c.Grid.Rate, c.Grid.StateBytes, c.Grid.Skew))
		}
		if err != nil {
			return nil, err
		}
		if c.Placement != "" {
			sc = sc.WithPlacement(c.Placement)
		}
		runs[i] = func() Outcome { return sc.RunWith(func() scaling.Mechanism { return c.Knob.mechanism(c.Mechanism) }) }
	}
	t := h.table
	if t == nil {
		t = new(sync.Map)
	}
	outs := make([]Outcome, len(cells))
	parallel(len(cells), h.Workers, func(i int) {
		v, _ := t.LoadOrStore(cells[i], new(tableEntry))
		e := v.(*tableEntry)
		e.once.Do(func() { e.out = runs[i]() })
		outs[i] = e.out
	})
	return outs, nil
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

// RunParallel executes specs across a worker pool and returns outcomes in
// spec order. workers <= 0 selects GOMAXPROCS.
func RunParallel(specs []RunSpec, workers int) []Outcome {
	out := make([]Outcome, len(specs))
	parallel(len(specs), workers, func(i int) {
		out[i] = specs[i].Scenario.RunWith(func() scaling.Mechanism { return Mechanisms(specs[i].Mechanism) })
	})
	return out
}

// parallel calls run(0..n-1) on a pool of workers (<= 0 means GOMAXPROCS)
// and returns once every call has.
func parallel(n, workers int, run func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

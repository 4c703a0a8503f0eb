package main

import (
	"bytes"
	"fmt"

	"drrs/internal/bench"
	"drrs/internal/chaos"
	"drrs/internal/cluster"
	"drrs/internal/control"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/faults"
	"drrs/internal/fitness"
	"drrs/internal/metrics"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
	"drrs/internal/workload"
)

// Kernels time calls into one layer's public API in isolation, so a layer's
// unit cost can be read beside the share of the whole run the profile gives
// it. Each kernel runs three times and keeps the fastest: the floor is the
// code's cost, the rest is the sandbox.

const kernelRuns = 3

// bestOf runs fn kernelRuns times and returns the fastest run in seconds.
func bestOf(fn func()) float64 {
	best := 0.0
	for i := 0; i < kernelRuns; i++ {
		t0 := wallNow()
		fn()
		if d := wallNow().Sub(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// kernelInputs is what the traced pass learned that sizes the kernels.
type kernelInputs struct {
	cells []prepared
	// snapshots are what the pass's controllers decided on; fitness is one
	// scoring input per successful cell.
	snapshots []control.Snapshot
	fitness   []fitness.Input
	keys      int // keys per store for the state kernels
	keyGroups int
	seed      int64
}

// kernelResults carries every kind-k number; zero means the workload gives
// the kernel nothing to run on (no Traffic, no decisions).
type kernelResults struct {
	SchedNsPerEvent     float64
	EdgeNsPerMsg        float64
	EngineNsPerHop      float64
	StateNsPerPutGet    float64
	StateNsPerKeyMoved  float64
	StateNsPerKeySnap   float64
	Arrivals            int
	WorkloadNsPerArrive float64
	TraceEncodeNs       float64
	TraceDecodeNs       float64
	TraceBytesPerEvent  float64
	MetricsNsPerObserve float64
	ClusterNsPerXfer    float64
	ClusterNsPerNodeOf  float64
	PlanUs              float64
	ControlNsPerObserve float64
	ControlNsPerScore   float64
	FaultsUsPerPlan     float64
	ChaosViolations     int
	ChaosDetail         []string
}

// runKernels executes every kernel under a span of its own.
func runKernels(tr *tracer, in kernelInputs) (kr kernelResults, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel panicked: %v", r)
		}
	}()
	kernel := func(name, layer string, fn func()) {
		sp := tr.begin("kernel:"+name, layer, "")
		fn()
		sp.end()
	}
	kernel("scheduler", "simtime", func() { kr.SchedNsPerEvent = kernelScheduler() })
	kernel("edge", "netsim", func() { kr.EdgeNsPerMsg = kernelEdge() })
	kernel("pipeline", "engine", func() { kr.EngineNsPerHop = kernelEngine() })
	kernel("state", "state", func() {
		kr.StateNsPerPutGet, kr.StateNsPerKeyMoved, kr.StateNsPerKeySnap = kernelState(in.keys, in.keyGroups)
	})
	kernel("traffic", "workload", func() { kernelTraffic(in.cells, &kr) })
	kernel("observe", "metrics", func() { kr.MetricsNsPerObserve = kernelLatencyObserve() })
	kernel("cluster", "cluster", func() { kr.ClusterNsPerXfer, kr.ClusterNsPerNodeOf = kernelCluster(in.cells) })
	kernel("plan", "scaling", func() { kr.PlanUs = kernelPlan(in.cells) })
	kernel("policy", "control", func() {
		kr.ControlNsPerObserve, kr.ControlNsPerScore = kernelControl(in.snapshots, in.fitness)
	})
	kernel("faultplan", "faults", func() { kr.FaultsUsPerPlan = kernelFaultPlan(in.seed) })
	if hasFaultCells(in.cells) {
		kernel("chaos", "faults", func() { kr.ChaosViolations, kr.ChaosDetail = kernelChaos(in.seed) })
	}
	return kr, nil
}

// kernelScheduler: After+Step with 4096 timers pending in the heap; every
// other After is for the current instant (the engine's wake pattern, which
// the scheduler serves from its fast lane), the rest land behind the heap.
func kernelScheduler() float64 {
	const pending, ops = 4096, 200_000
	s := simtime.NewScheduler()
	nop := func() {}
	for i := 0; i < pending; i++ {
		s.At(simtime.Time(i+1)*simtime.Time(simtime.Microsecond), nop)
	}
	sec := bestOf(func() {
		for i := 0; i < ops; i++ {
			if i&1 == 0 {
				s.After(0, nop)
			} else {
				s.After(pending*simtime.Microsecond, nop)
			}
			s.Step()
		}
	})
	return sec * 1e9 / ops
}

// kernelEdge: TrySend → link → inbox → PopInbox on one edge with pooled
// records, the engine's steady-state loop.
func kernelEdge() float64 {
	const ops = 200_000
	s := simtime.NewScheduler()
	e := netsim.NewEdge(s, netsim.Endpoint{Op: "a"}, netsim.Endpoint{Op: "b"}, netsim.EdgeConfig{
		Latency: simtime.Ms(0.5), OutCap: 128, InCap: 128,
	})
	var pool netsim.RecordPool
	e.SetReceiver(func(e *netsim.Edge) {
		for e.InboxLen() > 0 {
			if r, ok := e.PopInbox().(*netsim.Record); ok {
				pool.Put(r)
			}
		}
	})
	sec := bestOf(func() {
		for i := 0; i < ops; i++ {
			r := pool.Get()
			r.Key, r.Size = uint64(i), 64
			if !e.TrySend(r) {
				s.Run()
				e.TrySend(r)
			}
			if i%64 == 63 {
				s.Run()
			}
		}
		s.Run()
	})
	return sec * 1e9 / ops
}

// kernelEngine: a source → map → sink job under Runtime.RunFor; a hop is one
// record handled by one instance, so the figure includes the scheduler and
// edge work each hop causes.
func kernelEngine() float64 {
	const records = 50_000
	var hops uint64
	sec := bestOf(func() {
		g := dataflow.NewGraph()
		g.AddOperator(&dataflow.OperatorSpec{
			Name: "src", Parallelism: 1,
			Source: func(ctx dataflow.SourceContext) {
				var tick func(i int)
				tick = func(i int) {
					if i >= records {
						return
					}
					r := ctx.NewRecord()
					r.Key, r.EventTime, r.Size = uint64(i%512)+1, ctx.Now(), 64
					ctx.Ingest(r)
					ctx.After(100*simtime.Microsecond, func() { tick(i + 1) })
				}
				tick(0)
			},
		})
		g.AddOperator(&dataflow.OperatorSpec{
			Name: "map", Parallelism: 1, CostPerRecord: 10 * simtime.Microsecond,
			NewLogic: func() dataflow.Logic { return &engine.MapLogic{} },
		})
		sink := engine.NewCollectSink()
		g.AddOperator(&dataflow.OperatorSpec{
			Name: "sink", Parallelism: 1,
			NewLogic: func() dataflow.Logic { return sink },
		})
		g.Connect("src", "map", dataflow.ExchangeRebalance)
		g.Connect("map", "sink", dataflow.ExchangeRebalance)
		rt := engine.New(simtime.NewScheduler(), g, nil, engine.Config{Seed: 1, MarkerInterval: -1})
		rt.Start()
		rt.RunFor(simtime.Sec(records/10_000 + 1))
		hops = 0
		rt.EachInstance(func(in *engine.Instance) { hops += in.Processed })
		if sink.Records != records {
			panic(fmt.Sprintf("engine kernel: sink saw %d of %d records", sink.Records, records))
		}
	})
	return sec * 1e9 / float64(hops)
}

// kernelState: put/get, group migration and snapshot/restore on a store with
// the workload's own key and key-group counts.
func kernelState(keys, keyGroups int) (putGetNs, perKeyMovedNs, perKeySnapNs float64) {
	if keys < 1024 {
		keys = 1024
	}
	if keyGroups < 8 {
		keyGroups = 8
	}
	src, dst := state.NewStore(keyGroups), state.NewStore(keyGroups)
	for kg := 0; kg < keyGroups; kg++ {
		src.OwnGroup(kg)
	}
	for k := uint64(1); k <= uint64(keys); k++ {
		src.PutF64(k, float64(k), 64)
	}
	const ops = 200_000
	sec := bestOf(func() {
		for i := 0; i < ops; i++ {
			k := uint64(i%keys) + 1
			acc, _ := src.GetF64(k)
			src.PutF64(k, acc+1, 64)
		}
	})
	putGetNs = sec * 1e9 / ops

	const rounds = 8
	sec = bestOf(func() {
		for r := 0; r < rounds; r++ {
			for kg := 0; kg < keyGroups; kg++ {
				dst.InstallGroup(kg, src.ExtractGroup(kg))
			}
			for kg := 0; kg < keyGroups; kg++ {
				src.InstallGroup(kg, dst.ExtractGroup(kg))
			}
		}
	})
	perKeyMovedNs = sec * 1e9 / float64(2*rounds*keys)

	sec = bestOf(func() {
		for r := 0; r < rounds; r++ {
			src.Restore(src.Snapshot())
		}
	})
	perKeySnapNs = sec * 1e9 / float64(rounds*keys)
	return putGetNs, perKeyMovedNs, perKeySnapNs
}

// distinctScenarios returns the workload's prepared cells with one entry per
// scenario and seed, in cell order.
func distinctScenarios(cells []prepared) []*prepared {
	seen := map[string]bool{}
	var out []*prepared
	for i := range cells {
		p := &cells[i]
		if p.err != nil || seen[p.twinKey()] {
			continue
		}
		seen[p.twinKey()] = true
		out = append(out, p)
	}
	return out
}

// kernelTraffic drains every Traffic-driven scenario's streams to their
// horizon with no engine attached, then pushes the first one's synthesized
// trace through the codec. Custom generators (twitch, nexmark) expose no
// Traffic, so a workload made only of them reports zeros.
func kernelTraffic(cells []prepared, kr *kernelResults) {
	var first *prepared
	var drainS float64
	for _, p := range distinctScenarios(cells) {
		if p.sc.Traffic == nil {
			continue
		}
		if first == nil {
			first = p
		}
		par := p.sc.Job.SourceParallelism
		n := 0
		drainS += bestOf(func() {
			n = 0
			var ev workload.Event
			for i := 0; i < par; i++ {
				st := p.sc.Traffic.Stream(i, par, 0)
				for st.Next(&ev) {
					if !ev.Stop {
						n++
					}
				}
			}
		})
		kr.Arrivals += n
	}
	if first == nil || kr.Arrivals == 0 {
		return
	}
	kr.WorkloadNsPerArrive = drainS * 1e9 / float64(kr.Arrivals)

	trace := workload.Synthesize(first.sc.Traffic, first.sc.Job.SourceParallelism)
	events := float64(trace.Events())
	var buf bytes.Buffer
	sec := bestOf(func() {
		buf.Reset()
		if err := trace.Write(&buf); err != nil {
			panic(err)
		}
	})
	kr.TraceEncodeNs = sec * 1e9 / events
	kr.TraceBytesPerEvent = float64(buf.Len()) / events
	encoded := buf.Bytes()
	sec = bestOf(func() {
		if _, err := workload.ReadTrace(bytes.NewReader(encoded)); err != nil {
			panic(err)
		}
	})
	kr.TraceDecodeNs = sec * 1e9 / events
}

func kernelLatencyObserve() float64 {
	const ops = 200_000
	sec := bestOf(func() {
		lt := metrics.NewLatencyTracker()
		for i := 0; i < ops; i++ {
			now := simtime.Time(i) * simtime.Time(simtime.Millisecond)
			lt.Observe(now, now-simtime.Time(3*simtime.Millisecond))
		}
	})
	return sec * 1e9 / ops
}

// kernelCluster times TransferChecked and NodeOf/SpeedOf on the first cell's
// own topology (the flat default node when the scenario names none).
func kernelCluster(cells []prepared) (xferNs, nodeOfNs float64) {
	s := simtime.NewScheduler()
	cl := cluster.New(s)
	for _, p := range distinctScenarios(cells) {
		if p.sc.Cluster != nil {
			cl = p.sc.Cluster(s)
			break
		}
	}
	const endpoints, ops = 64, 50_000
	cl.PlaceInstances("k", 0, endpoints)
	eps := make([]netsim.Endpoint, endpoints)
	for i := range eps {
		eps[i] = netsim.Endpoint{Op: "k", Index: i}
	}
	done, fail := func() {}, func(error) {}
	sec := bestOf(func() {
		for i := 0; i < ops; i++ {
			cl.TransferChecked(eps[i%endpoints], eps[(i*7+1)%endpoints], 4096, done, fail)
			if i%64 == 63 {
				s.Run()
			}
		}
		s.Run()
	})
	xferNs = sec * 1e9 / ops
	var sink float64
	sec = bestOf(func() {
		for i := 0; i < ops; i++ {
			if cl.NodeOf(eps[i%endpoints]) != nil {
				sink += cl.SpeedOf(eps[i%endpoints])
			}
		}
	})
	if sink == 0 {
		panic("cluster kernel: no endpoint resolved to a node")
	}
	return xferNs, sec * 1e9 / ops
}

// buildGraph constructs a scenario's job graph the way RunWith does.
func buildGraph(sc *bench.Scenario) *dataflow.Graph {
	if sc.Traffic != nil {
		g, _ := workload.BuildJob(sc.Job, sc.Traffic)
		return g
	}
	g, _ := sc.Build(sc.Seed)
	return g
}

// kernelPlan times UniformPlan plus MovesFrom for every old instance at the
// workload's widest scaling operator.
func kernelPlan(cells []prepared) float64 {
	var widest *prepared
	width := 0
	for _, p := range distinctScenarios(cells) {
		if p.sc.ScaleOp == "" {
			continue
		}
		if w := buildGraph(&p.sc).Operator(p.sc.ScaleOp).Parallelism; w > width {
			widest, width = p, w
		}
	}
	if widest == nil {
		return 0
	}
	g := buildGraph(&widest.sc)
	target := widest.sc.Program()[0].NewParallelism
	const ops = 200
	moves := 0
	sec := bestOf(func() {
		for i := 0; i < ops; i++ {
			plan := scaling.UniformPlan(g, widest.sc.ScaleOp, target, widest.sc.Setup)
			for idx := 0; idx < plan.OldParallelism; idx++ {
				moves += len(plan.MovesFrom(idx))
			}
		}
	})
	if moves == 0 {
		panic("plan kernel: plan moved no key group")
	}
	return sec * 1e6 / ops
}

// kernelControl replays the snapshots the traced pass's controllers decided
// on through every registered policy, and scores every traced outcome.
func kernelControl(snaps []control.Snapshot, inputs []fitness.Input) (observeNs, scoreNs float64) {
	if len(snaps) > 0 {
		const rounds = 200
		names := control.PolicyNames()
		actions := 0
		sec := bestOf(func() {
			for _, name := range names {
				pol := control.PolicyByName(name, control.PolicyParams{RatedRPS: 650})
				for r := 0; r < rounds; r++ {
					for i := range snaps {
						actions += len(pol.Observe(snaps[i]))
					}
				}
			}
		})
		observeNs = sec * 1e9 / float64(len(names)*rounds*len(snaps))
	}
	if len(inputs) > 0 {
		w := fitness.DefaultWeights()
		var total float64
		sec := bestOf(func() {
			for i := range inputs {
				total += fitness.Measure(inputs[i]).Score(w)
			}
		})
		scoreNs = sec * 1e9 / float64(len(inputs))
	}
	return observeNs, scoreNs
}

// kernelFaultPlan: Generate → Spec → ParseSpec, the chaos search's per-case
// bookkeeping.
func kernelFaultPlan(seed int64) float64 {
	cfg := faults.GenConfig{
		Nodes:   []string{"r0n0", "r0n1", "r0n2", "r0n3"},
		Racks:   []string{"r0", "r1", "r2", "r3"},
		Retries: 2,
	}
	const ops = 2000
	sec := bestOf(func() {
		rng := simtime.NewRNG(seed, "benchmark/faultplan")
		for i := 0; i < ops; i++ {
			plan := faults.Generate(rng, cfg)
			if _, err := faults.ParseSpec(plan.Spec()); err != nil {
				panic(err)
			}
		}
	})
	return sec * 1e6 / ops
}

func hasFaultCells(cells []prepared) bool {
	for i := range cells {
		if cells[i].sc.Faults != nil {
			return true
		}
	}
	return false
}

// kernelChaos is the smallest chaos.Search there is — one scenario, one
// mechanism, one seed, on one worker — and must find nothing.
func kernelChaos(seed int64) (int, []string) {
	res := chaos.Search(chaos.Config{
		Scenarios:  []string{"node-loss-mid-migrate"},
		Mechanisms: []string{"drrs"},
		Seeds:      []int64{seed},
		Workers:    1,
	})
	var detail []string
	for _, v := range res.Violations {
		detail = append(detail, fmt.Sprintf("%s: %s (%s)", v.Oracle, v.Detail, v.Repro()))
	}
	return len(res.Violations), detail
}

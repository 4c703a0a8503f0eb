// Package scaletest is the shared harness for exercising scaling mechanisms
// on the custom workload: it runs a seeded job, triggers one scaling
// operation mid-stream, drains the pipeline, and exposes the invariant checks
// (exactly-once delivery, state conservation, participation) that every
// mechanism's tests assert.
package scaletest

import (
	"fmt"
	"maps"
	"slices"

	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
	"drrs/internal/workload"
)

// Workload is the custom job under test: its topology and its Classic
// traffic, side by side so tests override either with one assignment.
type Workload struct {
	workload.JobConfig
	workload.ClassicSpec
}

// Build assembles the job graph and its inspectable sink.
func (w Workload) Build() (*dataflow.Graph, *engine.CollectSink) {
	return workload.BuildJob(w.JobConfig, workload.Classic(w.ClassicSpec))
}

// Run configures one harness execution.
type Run struct {
	// Workload parameterizes the custom job. Duration must be set (the
	// harness drains to completion).
	Workload Workload
	// Mechanism is the scaling mechanism under test; nil runs without
	// scaling (the baseline).
	Mechanism scaling.Mechanism
	// ScaleAt is when the scaling request fires.
	ScaleAt simtime.Duration
	// NewParallelism is the target parallelism for "agg".
	NewParallelism int
	// SetupDelay models deployment time (default 50 ms).
	SetupDelay simtime.Duration
	// Cluster optionally supplies a multi-node deployment.
	Cluster func(s *simtime.Scheduler) *cluster.Cluster
}

// Result is what a harness execution produced.
type Result struct {
	RT   *engine.Runtime
	Sink *engine.CollectSink
	// ByKey sums the values of the records that reached the sink, per key.
	ByKey    map[uint64]float64
	Plan     scaling.Plan
	Mech     scaling.Mechanism
	Op       *scaling.Tracked // lifecycle handle of the scaling operation
	Done     bool             // the mechanism reported completion
	ScaleAt  simtime.Time
	Duration simtime.Duration // virtual time simulated
}

// Execute runs the configured scenario to quiescence and returns the result.
func (r Run) Execute() Result {
	if r.Workload.Duration <= 0 {
		panic("scaletest: Workload.Duration must be positive")
	}
	r.Workload.EmitUpdates = true
	g, sink := r.Workload.Build()
	byKey := SumByKey(g, "sink")
	s := simtime.NewScheduler()
	var cl *cluster.Cluster
	if r.Cluster != nil {
		cl = r.Cluster(s)
		// Initial deployment through the cluster's placement policy (no-op
		// without one); scale-out instances are placed by scaling.Deploy.
		for _, op := range g.Topological() {
			cl.PlaceInstances(op, 0, g.Operator(op).Parallelism)
		}
	}
	rt := engine.New(s, g, cl, engine.Config{Seed: r.Workload.Seed})
	rt.Start()

	res := Result{RT: rt, Sink: sink, ByKey: byKey, Mech: r.Mechanism}
	if r.Mechanism != nil {
		setup := r.SetupDelay
		if setup == 0 {
			setup = simtime.Ms(50)
		}
		s.After(r.ScaleAt, func() {
			res.ScaleAt = s.Now()
			res.Plan = scaling.UniformPlan(g, "agg", r.NewParallelism, setup)
			res.Op = r.Mechanism.Begin(rt, res.Plan, func() { res.Done = true })
		})
	}
	// Run generation, then drain: markers off, let every queued event (state
	// transfers, rerouted records, backlogged streams) play out.
	s.RunUntil(s.Now().Add(r.Workload.Duration))
	rt.StopMarkers()
	s.Run()
	res.Duration = simtime.Duration(s.Now())
	return res
}

// SumByKey wraps the logic of g's operator op so every record reaching it is
// also summed per key into the returned map. Call it before the runtime is
// built.
func SumByKey(g *dataflow.Graph, op string) map[uint64]float64 {
	sums := make(map[uint64]float64)
	spec := g.Operator(op)
	inner := spec.NewLogic
	spec.NewLogic = func() dataflow.Logic { return keySums{inner(), sums} }
	return sums
}

// keySums forwards to the wrapped logic after adding the record's value to
// its key's sum.
type keySums struct {
	dataflow.Logic
	sums map[uint64]float64
}

func (k keySums) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	k.sums[r.Key] += r.Value
	k.Logic.OnRecord(ctx, r)
}

// CheckExactlyOnce verifies the scaled run delivered exactly the baseline's
// per-key aggregates: no loss, no duplication, per-key order preserved (the
// running-sum signature is order-sensitive per key). A baseline with no keys
// fails: two empty sinks would agree on nothing. Returns a description of the
// first mismatch, or "".
func CheckExactlyOnce(baseline, scaled Result) string {
	if len(baseline.ByKey) == 0 {
		return "baseline sink recorded no keys"
	}
	if got, want := scaled.Sink.Records, baseline.Sink.Records; got != want {
		return fmt.Sprintf("record count: scaled %d vs baseline %d", got, want)
	}
	if d := scaled.Sink.Duplicates(); d != 0 {
		return fmt.Sprintf("%d duplicated sequence numbers", d)
	}
	// Report the lowest offending key so a failure message is stable across
	// runs instead of naming whichever key map iteration met first.
	for _, k := range slices.Sorted(maps.Keys(baseline.ByKey)) {
		want := baseline.ByKey[k]
		if got := scaled.ByKey[k]; got != want {
			return fmt.Sprintf("key %d aggregate: scaled %v vs baseline %v", k, got, want)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(scaled.ByKey)) {
		if _, ok := baseline.ByKey[k]; !ok {
			return fmt.Sprintf("key %d appears only in scaled run", k)
		}
	}
	return ""
}

// CheckPlacement verifies every key group lives exactly where the plan put
// it, and nowhere else. Returns a description of the first violation, or "".
func CheckPlacement(res Result) string {
	rt := res.RT
	plan := res.Plan
	spec := rt.Graph.Operator(plan.Operator)
	owner := make(map[int]int, spec.MaxKeyGroups)
	for kg := 0; kg < spec.MaxKeyGroups; kg++ {
		owner[kg] = state.OwnerOf(spec.MaxKeyGroups, plan.OldParallelism, kg)
	}
	for _, m := range plan.Moves {
		owner[m.KeyGroup] = m.To
	}
	for _, in := range rt.Instances(plan.Operator) {
		for kg, g := range in.Store().Groups() {
			// Empty shells are allowed off-target: Meces keeps them as
			// serving stubs for potential fetch-backs.
			if owner[kg] != in.Index && g.Len() > 0 {
				return fmt.Sprintf("kg %d found at %s, belongs to instance %d", kg, in.Name(), owner[kg])
			}
		}
	}
	return ""
}

// CheckParticipation verifies every new instance processed records. Returns a
// description of the first idle new instance, or "".
func CheckParticipation(res Result) string {
	for idx := res.Plan.OldParallelism; idx < res.Plan.NewParallelism; idx++ {
		in := res.RT.Instance(res.Plan.Operator, idx)
		if in == nil {
			return fmt.Sprintf("instance %d was never created", idx)
		}
		if in.Processed == 0 {
			return fmt.Sprintf("new instance %s processed nothing", in.Name())
		}
	}
	return ""
}

// RackCluster returns a factory for a racks×nodesPerRack topology test
// cluster: per-node migration bandwidth nodeBW, shared per-rack uplinks at
// uplinkBW with 1 ms uplink latency, slots instance slots per node, and the
// named placement policy installed. The default "local" node is marked
// unschedulable so policies place every instance on the rack fabric.
func RackCluster(racks, nodesPerRack int, nodeBW, uplinkBW float64, slots int, policy string) func(*simtime.Scheduler) *cluster.Cluster {
	return func(s *simtime.Scheduler) *cluster.Cluster {
		c := cluster.New(s)
		c.Node("local").Unschedulable = true
		for r := 0; r < racks; r++ {
			rack := fmt.Sprintf("rack%d", r)
			c.AddRack(rack, uplinkBW, simtime.Ms(1))
			for n := 0; n < nodesPerRack; n++ {
				c.AddNodeOnRack(rack, fmt.Sprintf("%s-n%d", rack, n), 1, nodeBW).Slots = slots
			}
		}
		c.SetPolicy(cluster.PolicyByName(policy))
		return c
	}
}

// SlowMigrationCluster returns a cluster factory whose single node has the
// given migration bandwidth (bytes/s), making state-transfer time visible in
// tests.
func SlowMigrationCluster(bandwidth float64) func(*simtime.Scheduler) *cluster.Cluster {
	return func(s *simtime.Scheduler) *cluster.Cluster {
		c := cluster.New(s)
		c.Node("local").MigrationBandwidth = bandwidth
		return c
	}
}

// DefaultWorkload is a small, fast configuration for mechanism tests.
func DefaultWorkload(seed int64) Workload {
	return Workload{
		JobConfig: workload.JobConfig{
			SourceParallelism: 2,
			AggParallelism:    4,
			MaxKeyGroups:      32,
			StateBytesPerKey:  512,
			CostPerRecord:     50 * simtime.Microsecond,
		},
		ClassicSpec: workload.ClassicSpec{
			Keys:       200,
			RatePerSec: 2000,
			Duration:   simtime.Sec(3),
			Seed:       seed,
		},
	}
}

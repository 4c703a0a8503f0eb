// Package dataflow defines the logical layer of the simulated engine: job
// graphs (DAGs of operator specifications), the operator-logic interface that
// user code implements, routing tables mapping key groups to instances, and
// the repartitioning math used by scaling plans.
package dataflow

import (
	"errors"
	"fmt"
	"sort"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// Exchange describes how records travel on a stream edge.
type Exchange int

// Exchange kinds.
const (
	// ExchangeKeyed routes by key group through the sender's routing table.
	ExchangeKeyed Exchange = iota
	// ExchangeRebalance distributes records round-robin.
	ExchangeRebalance
	// ExchangeBroadcast copies every record to every downstream instance.
	ExchangeBroadcast
)

func (e Exchange) String() string {
	switch e {
	case ExchangeKeyed:
		return "keyed"
	case ExchangeRebalance:
		return "rebalance"
	case ExchangeBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("exchange(%d)", int(e))
	}
}

// OpContext is what operator logic sees while handling a record: emission
// and keyed state.
type OpContext interface {
	// Emit sends a record downstream (routed per the outgoing exchange).
	Emit(r *netsim.Record)
	// NewRecord returns a zeroed record from the engine's recycling pool;
	// logic draws the records it emits here rather than allocating.
	NewRecord() *netsim.Record
	// State returns this instance's keyed state store.
	State() *state.Store
}

// Logic is the user-defined behaviour of an operator instance. A fresh Logic
// value is created per instance via OperatorSpec.NewLogic.
type Logic interface {
	// OnRecord handles one data record. The record is only valid for the
	// duration of the call unless it is re-emitted: the engine recycles
	// records that were not forwarded, so implementations must copy what they
	// keep (key, value, times) rather than retain the pointer.
	OnRecord(ctx OpContext, r *netsim.Record)
	// OnWatermark fires when the instance's aligned watermark advances.
	OnWatermark(ctx OpContext, wm simtime.Time)
}

// SourceFunc drives a source instance: it is called once at start and
// schedules its own emissions via the provided context.
type SourceFunc func(ctx SourceContext)

// SourceContext is the API available to source drivers.
type SourceContext interface {
	// Now returns the current virtual time.
	Now() simtime.Time
	// After schedules fn on the instance's scheduler.
	After(d simtime.Duration, fn func())
	// Ingest stamps IngestTime (and Seq) where unset, queues a copy of r
	// behind the source's backlog and drains that backlog in place, in order,
	// as far as downstream capacity allows; what does not fit leaves when
	// capacity frees. The copy keeps every field but KeyGroup, which routing
	// sets. Ingest recycles r itself at once: the caller must not touch it
	// after the call.
	Ingest(r *netsim.Record)
	// NewRecord returns a zeroed record from the engine's recycling pool.
	// Sources should draw records here rather than allocating, fill one and
	// hand it to Ingest, which returns it to the pool.
	NewRecord() *netsim.Record
	// EmitWatermark queues an event-time watermark behind the backlog and
	// drains in place, like Ingest.
	EmitWatermark(wm simtime.Time)
	// InstanceIndex identifies the parallel source subtask.
	InstanceIndex() int
	// Parallelism reports the source operator's instance count, so a driver
	// can partition a shared workload across subtasks.
	Parallelism() int
}

// OperatorSpec describes one operator of the job graph.
type OperatorSpec struct {
	Name        string
	Parallelism int

	// Source is non-nil for source operators (no inputs).
	Source SourceFunc
	// NewLogic builds the per-instance logic for non-source operators.
	// Sinks use logic too (typically a latency-recording collector).
	NewLogic func() Logic

	// KeyedInput marks the operator as stateful/keyed: its inputs must use
	// ExchangeKeyed and its instances own key-group ranges.
	KeyedInput bool
	// MaxKeyGroups is the key-group count for keyed operators (Flink's
	// maxParallelism). Defaults to 128 when zero.
	MaxKeyGroups int

	// CostPerRecord is the processing time of one record.
	CostPerRecord simtime.Duration
	// CostJitter is the relative uniform jitter applied to CostPerRecord.
	CostJitter float64
}

func (o *OperatorSpec) validate() error {
	if o.Name == "" {
		return fmt.Errorf("dataflow: operator with empty name")
	}
	if o.Parallelism <= 0 {
		return fmt.Errorf("dataflow: operator %s has parallelism %d", o.Name, o.Parallelism)
	}
	if o.Source == nil && o.NewLogic == nil {
		return fmt.Errorf("dataflow: operator %s has neither Source nor NewLogic", o.Name)
	}
	if o.Source != nil && o.KeyedInput {
		return fmt.Errorf("dataflow: source %s cannot be keyed", o.Name)
	}
	if o.KeyedInput && o.MaxKeyGroups == 0 {
		o.MaxKeyGroups = 128
	}
	return nil
}

// StreamEdge connects two operators.
type StreamEdge struct {
	From, To string
	Exchange Exchange
}

// Graph is a validated job DAG.
type Graph struct {
	ops     map[string]*OperatorSpec
	order   []string // topological
	inputs  map[string][]StreamEdge
	outputs map[string][]StreamEdge
}

// NewGraph returns an empty job graph.
func NewGraph() *Graph {
	return &Graph{
		ops:     make(map[string]*OperatorSpec),
		inputs:  make(map[string][]StreamEdge),
		outputs: make(map[string][]StreamEdge),
	}
}

// AddOperator registers an operator spec. It panics on duplicate names or
// invalid specs; graph construction errors are programming errors.
func (g *Graph) AddOperator(spec *OperatorSpec) *Graph {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	if _, dup := g.ops[spec.Name]; dup {
		panic(fmt.Sprintf("dataflow: duplicate operator %s", spec.Name))
	}
	g.ops[spec.Name] = spec
	g.order = nil
	return g
}

// Connect adds a stream edge between registered operators.
func (g *Graph) Connect(from, to string, ex Exchange) *Graph {
	f, ok := g.ops[from]
	if !ok {
		panic(fmt.Sprintf("dataflow: connect from unknown operator %s", from))
	}
	t, ok := g.ops[to]
	if !ok {
		panic(fmt.Sprintf("dataflow: connect to unknown operator %s", to))
	}
	if t.Source != nil {
		panic(fmt.Sprintf("dataflow: source %s cannot have inputs", to))
	}
	if t.KeyedInput && ex != ExchangeKeyed {
		panic(fmt.Sprintf("dataflow: keyed operator %s requires keyed exchange from %s", to, from))
	}
	_ = f
	e := StreamEdge{From: from, To: to, Exchange: ex}
	g.inputs[to] = append(g.inputs[to], e)
	g.outputs[from] = append(g.outputs[from], e)
	g.order = nil
	return g
}

// Operator returns a registered spec.
func (g *Graph) Operator(name string) *OperatorSpec { return g.ops[name] }

// Inputs returns the inbound stream edges of an operator.
func (g *Graph) Inputs(name string) []StreamEdge { return g.inputs[name] }

// Outputs returns the outbound stream edges of an operator.
func (g *Graph) Outputs(name string) []StreamEdge { return g.outputs[name] }

// Predecessors returns the upstream operator names of name.
func (g *Graph) Predecessors(name string) []string {
	var out []string
	for _, e := range g.inputs[name] {
		out = append(out, e.From)
	}
	return out
}

// Successors returns the downstream operator names of name.
func (g *Graph) Successors(name string) []string {
	var out []string
	for _, e := range g.outputs[name] {
		out = append(out, e.To)
	}
	return out
}

// Topological returns operator names in a stable topological order. It
// panics on cycles — job graphs are DAGs by definition.
func (g *Graph) Topological() []string {
	order, err := g.topological()
	if err != nil {
		panic(err.Error())
	}
	return order
}

// topological is Topological with the cycle reported as an error.
func (g *Graph) topological() ([]string, error) {
	if g.order != nil {
		return g.order, nil
	}
	indeg := make(map[string]int, len(g.ops))
	names := make([]string, 0, len(g.ops))
	for n := range g.ops {
		names = append(names, n)
		indeg[n] = len(g.inputs[n])
	}
	sort.Strings(names) // stable tie-breaking
	var ready []string
	for _, n := range names {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var succs []string
		succs = append(succs, g.Successors(n)...)
		sort.Strings(succs)
		for _, s := range succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(g.ops) {
		return nil, errors.New("dataflow: job graph has a cycle")
	}
	g.order = order
	return order, nil
}

// Validate checks structural integrity: every non-source has inputs, every
// source has outputs, and the graph is acyclic.
func (g *Graph) Validate() error {
	names := make([]string, 0, len(g.ops))
	for n := range g.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if op := g.ops[n]; op.Source == nil && len(g.inputs[n]) == 0 {
			return fmt.Errorf("dataflow: operator %s has no inputs and is not a source", n)
		}
	}
	_, err := g.topological()
	return err
}

// RoutingTable maps key groups to instance indices for one keyed operator,
// as held by one predecessor instance. During scaling, different predecessors
// may briefly hold different tables — that is exactly the synchronization
// problem the paper studies.
type RoutingTable struct {
	MaxKG int
	owner []int
}

// NewRoutingTable builds the contiguous Flink assignment for the given
// parallelism.
func NewRoutingTable(maxKG, parallelism int) *RoutingTable {
	rt := &RoutingTable{MaxKG: maxKG, owner: make([]int, maxKG)}
	for kg := 0; kg < maxKG; kg++ {
		rt.owner[kg] = state.OwnerOf(maxKG, parallelism, kg)
	}
	return rt
}

// Owner returns the instance owning kg.
func (rt *RoutingTable) Owner(kg int) int { return rt.owner[kg] }

// SetOwner reassigns kg.
func (rt *RoutingTable) SetOwner(kg, instance int) { rt.owner[kg] = instance }

// Clone copies the table.
func (rt *RoutingTable) Clone() *RoutingTable {
	owner := make([]int, len(rt.owner))
	copy(owner, rt.owner)
	return &RoutingTable{MaxKG: rt.MaxKG, owner: owner}
}

// Move is one key group's reassignment in a scale plan.
type Move struct {
	KeyGroup int
	From, To int
}

// UniformRepartition computes the paper's default strategy: the new
// assignment is the contiguous range assignment at the new parallelism; the
// plan is the set of key groups whose owner changes. Scaling 8→12 over 128
// groups moves 111 of them, reproducing the paper's experimental setup.
func UniformRepartition(maxKG, oldP, newP int) []Move {
	var moves []Move
	for kg := 0; kg < maxKG; kg++ {
		from := state.OwnerOf(maxKG, oldP, kg)
		to := state.OwnerOf(maxKG, newP, kg)
		if from != to {
			moves = append(moves, Move{KeyGroup: kg, From: from, To: to})
		}
	}
	return moves
}

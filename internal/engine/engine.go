// Package engine is the runtime of the simulated stream processing engine:
// operator instances with an event-driven processing loop, pluggable input
// handlers (the seam DRRS's Scale Input Handler replaces), keyed emission
// through per-sender routing tables, watermark alignment, aligned
// checkpoints, sources with ingest backlogs, latency-marker plumbing, and
// runtime rescaling primitives (instance addition, edge wiring, outbox
// redirection).
//
// The engine deliberately mirrors the pieces of Apache Flink that the paper's
// mechanisms manipulate, at the granularity the paper reasons about: output
// caches, input buffers, barriers, key groups, and routing tables.
//
// The per-message path indexes instead of hashing, and does not grow with
// fan-in. On the input side every channel of an instance has a slot — its
// position in InEdges — and the per-channel state (last watermark, alignment
// block, "inbox non-empty") is slot-indexed; the edges keep the non-empty set
// current themselves, so an input handler finds the next admissible channel
// with NextReady, a find-next-set-bit, not by polling every channel.
// DetachInput renumbers the slots behind the channel it removes, and a call
// naming a channel that is no longer an input is ignored. On the output side
// each instance resolves its downstream operators once, at construction, into
// ports (stream edge, channels, routing table, rebalance cursor) in
// Graph.Outputs order; the by-name accessors (OutEdges, Routing, SetRouting,
// SendControl) are the only users of a name index.
package engine

import (
	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/metrics"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// edgeLatency is the per-hop network latency of data edges (LAN-ish). Data
// edges have no bandwidth model: the data plane is rarely the bottleneck in
// the paper's experiments.
const edgeLatency = 500 * simtime.Microsecond

// ControlLatency models coordinator→worker RPC latency.
const ControlLatency = simtime.Millisecond

// snapshotBytesPerSec is the checkpoint write rate (400 MB/s).
const snapshotBytesPerSec = 400 << 20

// edgeCap bounds the output cache and the input buffer of each data edge in
// records, roughly Flink's buffer pools.
const edgeCap = 128

// throughputBucket is the throughput series resolution.
const throughputBucket = simtime.Second

// Config carries runtime-wide tunables. Zero values select the defaults
// documented on each field.
type Config struct {
	// Seed drives every random stream in the run.
	Seed int64

	// MarkerInterval is the latency-marker injection period (default 250 ms;
	// 0 disables markers).
	MarkerInterval simtime.Duration
}

func (c *Config) fillDefaults() {
	if c.MarkerInterval == 0 {
		c.MarkerInterval = simtime.Ms(250)
	}
}

// Runtime executes one job graph on a scheduler.
type Runtime struct {
	Sched   *simtime.Scheduler
	Graph   *dataflow.Graph
	Cluster *cluster.Cluster
	Cfg     Config

	instances map[string][]*Instance

	// Latency records marker end-to-end latencies (ms).
	Latency *metrics.LatencyTracker
	// Throughput records source emission rates.
	Throughput *metrics.ThroughputTracker
	// Scale aggregates scaling-delay accounting; mechanisms write into it.
	Scale *metrics.ScalingMetrics

	rng       *simtime.RNG
	recSeq    uint64
	scaleSeq  int64
	markerSeq uint64
	ckptSeq   int64
	ckpt      *checkpointRound

	// recPool recycles Record values: sources and marker injection fill one
	// and ingest returns it at once, a source's backlog draws one as each
	// queued arrival leaves, and records are returned when they die (applied
	// without being forwarded, or a marker reaching its sink).
	recPool netsim.RecordPool
	// wmPool recycles watermarks: an instance sends one per advance down
	// all its output edges, holding it once per edge, and each receiver
	// puts it back once it has read it.
	wmPool netsim.WatermarkPool
	// arrivalSegs and sideSegs are the free segment chains every source
	// backlog of this run grows from and retires to.
	arrivalSegs netsim.SegChain[arrival]
	sideSegs    netsim.SegChain[any]

	markerTimer simtime.Timer
}

// New builds a runtime for the graph: it validates the DAG, creates all
// instances, wires all edges, and assigns key-group ranges, but does not
// start sources. Call Start (or StartAt) before running the scheduler.
func New(s *simtime.Scheduler, g *dataflow.Graph, cl *cluster.Cluster, cfg Config) *Runtime {
	cfg.fillDefaults()
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if cl == nil {
		cl = cluster.New(s)
	}
	rt := &Runtime{
		Sched:      s,
		Graph:      g,
		Cluster:    cl,
		Cfg:        cfg,
		instances:  make(map[string][]*Instance),
		Latency:    metrics.NewLatencyTracker(),
		Throughput: metrics.NewThroughputTracker(throughputBucket),
		Scale:      metrics.NewScalingMetrics(),
		rng:        simtime.NewRNG(cfg.Seed, "runtime"),
	}
	// Create instances in topological order, then wire edges.
	for _, name := range g.Topological() {
		spec := g.Operator(name)
		for i := 0; i < spec.Parallelism; i++ {
			rt.instances[name] = append(rt.instances[name], rt.newInstance(spec, i))
		}
	}
	for _, name := range g.Topological() {
		for _, se := range g.Outputs(name) {
			for _, from := range rt.instances[name] {
				for _, to := range rt.instances[se.To] {
					rt.wire(from, to, se)
				}
			}
		}
	}
	// Keyed operators own their initial key-group ranges.
	for _, name := range g.Topological() {
		spec := g.Operator(name)
		if !spec.KeyedInput {
			continue
		}
		for i, in := range rt.instances[name] {
			lo, hi := state.KeyGroupRange(spec.MaxKeyGroups, spec.Parallelism, i)
			for kg := lo; kg < hi; kg++ {
				in.store.OwnGroup(kg)
			}
		}
	}
	return rt
}

// newEdge builds a data channel from src to dst whose latency follows the
// cluster topology path between the two instances. Arrivals wake dst and
// freed outbox space wakes src.
func (rt *Runtime) newEdge(src, dst *Instance) *netsim.Edge {
	e := netsim.NewEdge(rt.Sched, src.Endpoint(), dst.Endpoint(), netsim.EdgeConfig{
		Latency: rt.Cluster.LinkLatency(src.Endpoint(), dst.Endpoint(), edgeLatency),
		OutCap:  edgeCap,
		InCap:   edgeCap,
	})
	e.SetReceiver(func(*netsim.Edge) { dst.wakeTail() })
	e.SetSenderWake(func() { src.wakeTail() })
	return e
}

// wire creates the physical channel for one (from-instance, to-instance)
// pair of a stream edge. The channel's latency is derived from the cluster
// topology path between the two instances (cross-rack hops pay both uplink
// latencies), so placement decisions shape the data plane, not just state
// migration.
func (rt *Runtime) wire(from, to *Instance, se dataflow.StreamEdge) {
	e := rt.newEdge(from, to)
	port := from.portByOp[se.To]
	from.addOutput(port, to.Index, e)
	to.addInput(e)
	if se.Exchange == dataflow.ExchangeKeyed && port.routing == nil {
		port.routing = dataflow.NewRoutingTable(port.maxKeyGroups, rt.Graph.Operator(se.To).Parallelism)
	}
}

// Instances returns the live instances of an operator.
func (rt *Runtime) Instances(op string) []*Instance { return rt.instances[op] }

// Instance returns one instance, or nil when out of range.
func (rt *Runtime) Instance(op string, idx int) *Instance {
	is := rt.instances[op]
	if idx < 0 || idx >= len(is) {
		return nil
	}
	return is[idx]
}

// EachInstance visits all instances in topological operator order.
func (rt *Runtime) EachInstance(fn func(*Instance)) {
	for _, name := range rt.Graph.Topological() {
		for _, in := range rt.instances[name] {
			fn(in)
		}
	}
}

// Start launches all source drivers and the latency-marker injector at the
// current scheduler time.
func (rt *Runtime) Start() {
	for _, name := range rt.Graph.Topological() {
		spec := rt.Graph.Operator(name)
		if spec.Source == nil {
			continue
		}
		for _, in := range rt.instances[name] {
			in.startSource()
		}
	}
	if rt.Cfg.MarkerInterval > 0 {
		rt.scheduleMarker()
	}
}

func (rt *Runtime) scheduleMarker() {
	rt.markerTimer = rt.Sched.After(rt.Cfg.MarkerInterval, func() {
		rt.injectMarkers()
		rt.scheduleMarker()
	})
}

// injectMarkers ingests one latency marker at every source instance. The
// marker key rotates so that, over time, markers sample every downstream
// instance path (suspended instances therefore show up as latency spikes).
func (rt *Runtime) injectMarkers() {
	for _, name := range rt.Graph.Topological() {
		spec := rt.Graph.Operator(name)
		if spec.Source == nil {
			continue
		}
		for _, in := range rt.instances[name] {
			rt.markerSeq++
			m := rt.recPool.Get()
			m.Key = rt.markerSeq
			m.IngestTime = rt.Sched.Now()
			m.Size = 32
			m.Marker = true
			in.ingest(m)
		}
	}
}

// StopMarkers halts marker injection (used at experiment teardown).
func (rt *Runtime) StopMarkers() {
	rt.markerTimer.Cancel()
}

// NextSeq hands out a global record sequence number.
func (rt *Runtime) NextSeq() uint64 {
	rt.recSeq++
	return rt.recSeq
}

// NextScaleID hands out this run's next scaling-operation id (first is 1):
// barrier messages and signal names carry it, so they depend only on how many
// operations this runtime has begun.
func (rt *Runtime) NextScaleID() int64 {
	rt.scaleSeq++
	return rt.scaleSeq
}

// checkpointRound tracks one in-flight aligned checkpoint.
type checkpointRound struct {
	id      int64
	started simtime.Time
	pending map[string]bool // instance names yet to ack
	done    func(id int64)
}

// ckptStarted reports when checkpoint id was triggered (zero if unknown).
func (rt *Runtime) ckptStarted(id int64) simtime.Time {
	if rt.ckpt != nil && rt.ckpt.id == id {
		return rt.ckpt.started
	}
	return 0
}

// TriggerCheckpoint starts an aligned checkpoint: barriers are injected at
// every source instance and flow through the topology with channel-blocking
// alignment. done (optional) fires when every instance has snapshotted.
// It returns the checkpoint id, or -1 if one is already running.
func (rt *Runtime) TriggerCheckpoint(done func(id int64)) int64 {
	if rt.ckpt != nil {
		return -1
	}
	rt.ckptSeq++
	round := &checkpointRound{id: rt.ckptSeq, started: rt.Sched.Now(), pending: make(map[string]bool), done: done}
	rt.EachInstance(func(in *Instance) { round.pending[in.Name()] = true })
	rt.ckpt = round
	for _, name := range rt.Graph.Topological() {
		spec := rt.Graph.Operator(name)
		if spec.Source == nil {
			continue
		}
		for _, in := range rt.instances[name] {
			in.sourceEmitBarrier(&netsim.CheckpointBarrier{ID: round.id})
		}
	}
	return round.id
}

// ackCheckpoint is called by instances after snapshotting.
func (rt *Runtime) ackCheckpoint(id int64, instance string) {
	if rt.ckpt == nil || rt.ckpt.id != id {
		return
	}
	delete(rt.ckpt.pending, instance)
	if len(rt.ckpt.pending) == 0 {
		round := rt.ckpt
		rt.ckpt = nil
		if round.done != nil {
			round.done(round.id)
		}
	}
}

// RunFor advances the simulation by d.
func (rt *Runtime) RunFor(d simtime.Duration) {
	rt.Sched.RunUntil(rt.Sched.Now().Add(d))
}

// SourceBacklog sums the ingest backlogs across every source instance — the
// demand pressure the data plane has not yet absorbed, and the reactive
// control plane's primary signal (backpressure from a saturated operator
// stalls source emission, so unabsorbed load piles up here).
func (rt *Runtime) SourceBacklog() int {
	n := 0
	for _, name := range rt.Graph.Topological() {
		if rt.Graph.Operator(name).Source == nil {
			continue
		}
		for _, in := range rt.instances[name] {
			n += in.BacklogLen()
		}
	}
	return n
}

// LostRecords reports how many data records faults have destroyed so far:
// mid-service at a crashed instance, or stranded behind a recovery re-route
// (zero on healthy runs). It sums the instances' tallies; instances are never
// removed, so no loss drops out of the sum.
func (rt *Runtime) LostRecords() uint64 {
	var n uint64
	rt.EachInstance(func(in *Instance) { n += in.LostRecords() })
	return n
}

// TotalStateBytes sums keyed state across an operator's instances.
func (rt *Runtime) TotalStateBytes(op string) int {
	var sum int
	for _, in := range rt.instances[op] {
		sum += in.store.TotalBytes()
	}
	return sum
}

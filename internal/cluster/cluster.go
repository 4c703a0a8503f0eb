// Package cluster models the physical deployment substrate: worker nodes
// with processing-speed factors and per-node migration bandwidth pools,
// optionally organized into racks with shared cross-rack uplinks, plus the
// placement policies that decide which node each operator instance runs on.
//
// State migration transfers from the same source node contend for that node's
// migration bandwidth (FIFO), which is what makes the DRRS Subscale
// Scheduler's per-node concurrency threshold meaningful, and what the paper's
// sensitivity analysis (Fig 15) exercises on its 4-node Swarm cluster.
// Transfers that cross a rack boundary additionally contend for the source
// rack's shared uplink and pay both racks' uplink latencies (topology.go).
package cluster

import (
	"errors"
	"fmt"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// transferLatency is the per-transfer network latency between distinct
// nodes; transfers within one node skip it.
const transferLatency = 500 * simtime.Microsecond

// Transfer failure causes, wrapped into the error a failed transfer reports.
// Both are transient: a restart or a healed partition clears them.
var (
	// ErrInstanceDead means an endpoint instance's node is marked dead.
	ErrInstanceDead = errors.New("instance node dead")
	// ErrPartitioned means the transfer path crosses a partitioned rack
	// uplink.
	ErrPartitioned = errors.New("rack uplink down")
)

// RetryPolicy retries failed transfers with deterministic capped
// exponential backoff: attempt n re-launches Backoff(n) after the failure is
// detected, where Backoff doubles from Base up to Cap. The zero value
// disables retry entirely — transfers fail on first detection, preserving
// every pre-retry digest — so the policy is safe to install unconditionally.
type RetryPolicy struct {
	// Max is the number of re-attempts per transfer (0 disables retry).
	Max int
	// Base is the first backoff delay (default 250ms when Max > 0).
	Base simtime.Duration
	// Cap bounds the exponential growth (default 2s when Max > 0).
	Cap simtime.Duration
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.Max > 0 }

// Backoff returns the delay before re-attempt number attempt+1 (attempt
// counts completed attempts, starting at 0): Base<<attempt, capped at Cap.
func (p RetryPolicy) Backoff(attempt int) simtime.Duration {
	base, ceil := p.Base, p.Cap
	if base <= 0 {
		base = 250 * simtime.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * simtime.Second
	}
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return d
}

// Node is one simulated worker machine.
type Node struct {
	Name string
	// Speed scales instance processing cost (cost/Speed); the paper's cluster
	// is heterogeneous (Gold vs Silver Xeons).
	Speed float64
	// MigrationBandwidth is the byte rate available for outgoing state
	// transfers; <= 0 means infinite.
	MigrationBandwidth float64
	// Rack is the rack the node belongs to ("" on flat clusters).
	Rack string
	// Slots is the node's instance capacity, consulted by capacity-aware
	// placement policies; <= 0 means unbounded.
	Slots int
	// Unschedulable excludes the node from placement policies (explicit
	// Place still works) — e.g. the default "local" node on rack topologies,
	// which would otherwise soak up instances on its infinite NIC.
	Unschedulable bool
	// Dead marks a crashed node: placement policies avoid it and transfers
	// touching it fail through their error callback. Use MarkDead/MarkAlive
	// rather than flipping the field so accounting stays in one place.
	Dead bool

	busyUntil simtime.Time
	// TransferredBytes counts outgoing migration traffic.
	TransferredBytes int64
}

// reserve books bytes on the node's outgoing migration pool, starting no
// earlier than ready, and returns when the last byte clears the NIC. An
// infinite pool (MigrationBandwidth <= 0) never queues and never advances
// busyUntil — the old code advanced the bookkeeping anyway, so a pool whose
// bandwidth was raised to infinite mid-run could still delay transfers behind
// stale busyUntil state.
func (n *Node) reserve(ready simtime.Time, bytes int) simtime.Time {
	n.busyUntil, ready = reservePool(n.busyUntil, n.MigrationBandwidth, ready, bytes)
	return ready
}

// reservePool is the shared FIFO bandwidth-pool arithmetic for node NICs and
// rack uplinks: it returns the updated busy horizon and the completion time
// of this reservation.
func reservePool(busyUntil simtime.Time, bandwidth float64, ready simtime.Time, bytes int) (simtime.Time, simtime.Time) {
	if bandwidth <= 0 {
		return busyUntil, ready
	}
	start := ready
	if busyUntil > start {
		start = busyUntil
	}
	done := start.Add(simtime.Duration(float64(bytes) / bandwidth * float64(simtime.Second)))
	return done, done
}

// Cluster places operator instances onto nodes and brokers state transfers.
type Cluster struct {
	sched     *simtime.Scheduler
	nodes     map[string]*Node
	order     []string
	racks     map[string]*Rack
	rackOrder []string
	placement map[netsim.Endpoint]string
	// epoch counts changes to what NodeOf can answer (AddNode, Place), so
	// callers may cache a resolved *Node. See Epoch.
	epoch uint64
	// used counts placed instances per node; opUsed counts them per
	// (node, operator) for the rack-local policy.
	used   map[string]int
	opUsed map[string]map[string]int
	policy Policy
	// OnTransferFail, when set, observes every failed transfer (fault
	// accounting). It runs before the transfer's own fail callback.
	OnTransferFail func(from, to netsim.Endpoint, bytes int, err error)
	// TransferRetry, when armed (Max > 0), re-attempts failed transfers
	// with capped exponential backoff before reporting them. The
	// zero value keeps the historical fail-on-first-detection behavior.
	TransferRetry RetryPolicy
	// OnTransferRetry, when set, observes every scheduled re-attempt
	// (attempt numbers the re-attempt, starting at 1). It fires at the
	// instant the failure was detected, before the backoff elapses.
	OnTransferRetry func(from, to netsim.Endpoint, bytes int, err error, attempt int)

	// spare is the free list of transfer records.
	spare *transfer
}

// New returns a cluster with a single infinite-bandwidth node "local", which
// keeps single-machine experiments trivial to set up.
func New(s *simtime.Scheduler) *Cluster {
	c := &Cluster{
		sched:     s,
		nodes:     make(map[string]*Node),
		racks:     make(map[string]*Rack),
		placement: make(map[netsim.Endpoint]string),
		used:      make(map[string]int),
		opUsed:    make(map[string]map[string]int),
	}
	c.AddNode("local", 1.0, 0)
	return c
}

// AddNode registers a worker node.
func (c *Cluster) AddNode(name string, speed, migBandwidth float64) *Node {
	if _, dup := c.nodes[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate node %s", name))
	}
	if speed <= 0 {
		speed = 1
	}
	n := &Node{Name: name, Speed: speed, MigrationBandwidth: migBandwidth}
	c.nodes[name] = n
	c.order = append(c.order, name)
	c.epoch++
	return n
}

// Node returns a registered node by name.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// MarkDead marks a node as crashed: placement policies skip it and transfers
// touching it fail. Placements on the node are kept — instances stay pinned to
// the corpse until something re-places them — so recovery can see where state
// used to live. Unknown names are ignored (the fault plan may name nodes a
// topology override removed).
func (c *Cluster) MarkDead(name string) {
	if n := c.nodes[name]; n != nil {
		n.Dead = true
	}
}

// MarkAlive returns a dead node to service (crash-with-restart).
func (c *Cluster) MarkAlive(name string) {
	if n := c.nodes[name]; n != nil {
		n.Dead = false
	}
}

// Nodes returns node names in registration order.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.order...) }

// Place pins an instance to a node, replacing any earlier placement (slot
// accounting follows the instance).
func (c *Cluster) Place(ep netsim.Endpoint, node string) {
	if _, ok := c.nodes[node]; !ok {
		panic(fmt.Sprintf("cluster: place on unknown node %s", node))
	}
	if old, ok := c.placement[ep]; ok {
		c.used[old]--
		c.opUsed[old][ep.Op]--
	}
	c.placement[ep] = node
	c.epoch++
	c.used[node]++
	if c.opUsed[node] == nil {
		c.opUsed[node] = make(map[string]int)
	}
	c.opUsed[node][ep.Op]++
}

// PlaceRoundRobin spreads an operator's instances across all nodes.
func (c *Cluster) PlaceRoundRobin(op string, parallelism int) {
	for i := 0; i < parallelism; i++ {
		c.Place(netsim.Endpoint{Op: op, Index: i}, c.order[i%len(c.order)])
	}
}

// NodeOf resolves an instance's node, defaulting to the first node. It never
// returns nil: Place only accepts registered nodes and nodes are never
// removed.
func (c *Cluster) NodeOf(ep netsim.Endpoint) *Node {
	if name, ok := c.placement[ep]; ok {
		return c.nodes[name]
	}
	return c.nodes[c.order[0]]
}

// Epoch identifies the current instance→node resolution: a *Node obtained
// from NodeOf stays the right answer for its endpoint while Epoch is
// unchanged. It is never 0 (New registers a node), so 0 can mean "nothing
// cached". Cache the node, not its fields: Speed and Dead change in place.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// SpeedOf returns the processing-speed factor for an instance.
func (c *Cluster) SpeedOf(ep netsim.Endpoint) float64 { return c.NodeOf(ep).Speed }

// Transfer schedules a state transfer of the given size from one instance to
// another and invokes done on completion. Transfers leaving the same node
// serialize on its migration bandwidth; transfers crossing a rack boundary
// additionally serialize (store-and-forward) on the source rack's shared
// uplink and pay both racks' uplink latencies on top of the base latency.
//
// On an unhealthy cluster (dead endpoint node, partitioned rack) the
// transfer fails instead of completing: Transfer drops it silently after
// notifying OnTransferFail; use TransferChecked to observe the failure.
func (c *Cluster) Transfer(from, to netsim.Endpoint, bytes int, done func()) {
	c.TransferChecked(from, to, bytes, done, nil)
}

// TransferChecked is Transfer with an explicit failure callback. The source
// node and the rack path are checked at launch; the destination is checked at
// delivery time, so a transfer whose destination instance is re-placed onto a
// healthy node while the bytes are in flight still succeeds. Exactly one of
// done/fail fires, at the instant the transfer would have completed (failures
// are detected when the bytes arrive, not for free at launch — except a dead
// source, which cannot even start and fails immediately).
//
// When TransferRetry is armed, a failed transfer re-launches from scratch
// after the policy's backoff — re-resolving both endpoints and re-paying
// bandwidth for the re-sent bytes — until it succeeds or exhausts the retry
// budget. done/fail still fire exactly once.
func (c *Cluster) TransferChecked(from, to netsim.Endpoint, bytes int, done func(), fail func(error)) {
	t := c.spare
	if t == nil {
		t = &transfer{c: c}
		t.deliverFn, t.concludeFn, t.launchFn = t.deliver, t.concludeFail, t.launch
	} else {
		c.spare, t.next = t.next, nil
	}
	t.from, t.to, t.bytes, t.attempt, t.done, t.fail = from, to, bytes, 0, done, fail
	t.launch()
}

// transfer is one state transfer across all its attempts. Its scheduler
// callbacks are bound once, when the record is first built; the record goes
// back to its cluster's free list as done or fail fires, so once the list is
// warm neither a transfer nor a retry allocates.
type transfer struct {
	c        *Cluster
	from, to netsim.Endpoint
	bytes    int
	// attempt numbers the attempt in flight (0-based); cause is why it
	// failed, once it has.
	attempt int
	cause   error
	done    func()
	fail    func(error)

	deliverFn, concludeFn, launchFn func()
	// next links the free list while the record sits in it.
	next *transfer
}

// recycle returns t to the free list; the caller has copied what it still
// needs out of it.
func (c *Cluster) recycle(t *transfer) {
	t.cause, t.done, t.fail = nil, nil, nil
	t.next, c.spare = c.spare, t
}

// launch starts attempt number t.attempt.
func (t *transfer) launch() {
	c := t.c
	src := c.NodeOf(t.from)
	if src.Dead {
		t.failAt(c.sched.Now(), ErrInstanceDead)
		return
	}
	dst := c.NodeOf(t.to)
	src.TransferredBytes += int64(t.bytes)
	ready := src.reserve(c.sched.Now(), t.bytes)
	if src == dst {
		c.sched.At(ready, t.deliverFn)
		return
	}
	lat := transferLatency
	if sr, dr := c.rackPath(src, dst); sr != nil {
		if sr.Down || dr.Down {
			// The path is partitioned: the transfer times out after the base
			// hop latency without ever occupying the uplink.
			t.failAt(ready.Add(lat), ErrPartitioned)
			return
		}
		ready = sr.reserveUplink(ready, t.bytes)
		sr.OutBytes += int64(t.bytes)
		dr.InBytes += int64(t.bytes)
		lat += sr.UplinkLatency + dr.UplinkLatency
	}
	c.sched.At(ready.Add(lat), t.deliverFn)
}

// rackPath returns the source and destination racks when the transfer crosses
// a rack boundary, (nil, nil) otherwise.
func (c *Cluster) rackPath(src, dst *Node) (*Rack, *Rack) {
	if sr, dr := c.racks[src.Rack], c.racks[dst.Rack]; sr != nil && dr != nil && sr != dr {
		return sr, dr
	}
	return nil, nil
}

// deliver lands the bytes at the destination, re-resolving its node at
// delivery time.
func (t *transfer) deliver() {
	if t.c.NodeOf(t.to).Dead {
		t.cause = ErrInstanceDead
		t.concludeFail()
		return
	}
	done := t.done
	t.c.recycle(t)
	if done != nil {
		done()
	}
}

// failAt schedules the failure's conclusion (retry or report) for at.
func (t *transfer) failAt(at simtime.Time, cause error) {
	t.cause = cause
	t.c.sched.At(at, t.concludeFn)
}

// concludeFail runs at the instant a failed attempt was detected: under an
// armed retry policy with budget left it re-launches the whole attempt after
// the backoff; otherwise it reports the failure.
func (t *transfer) concludeFail() {
	c := t.c
	if p := c.TransferRetry; p.Enabled() && t.attempt < p.Max {
		if c.OnTransferRetry != nil {
			c.OnTransferRetry(t.from, t.to, t.bytes, t.cause, t.attempt+1)
		}
		c.sched.After(p.Backoff(t.attempt), t.launchFn)
		t.attempt++
		return
	}
	from, to, bytes, cause, fail := t.from, t.to, t.bytes, t.cause, t.fail
	c.recycle(t)
	c.noteFail(from, to, bytes, cause, fail)
}

func (c *Cluster) noteFail(from, to netsim.Endpoint, bytes int, cause error, fail func(error)) {
	err := fmt.Errorf("cluster: transfer %s/%d→%s/%d (%d B): %w",
		from.Op, from.Index, to.Op, to.Index, bytes, cause)
	if c.OnTransferFail != nil {
		c.OnTransferFail(from, to, bytes, err)
	}
	if fail != nil {
		fail(err)
	}
}

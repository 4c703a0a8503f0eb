package cluster

import (
	"fmt"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// Rack models a top-of-rack switch: nodes within a rack talk at the base
// latency, while traffic crossing the rack boundary pays the uplink latency
// of both ends and contends for the source rack's shared uplink bandwidth.
type Rack struct {
	Name string
	// UplinkBandwidth is the shared byte rate for migration traffic leaving
	// the rack; <= 0 means infinite. All cross-rack transfers out of the rack
	// serialize on this one pool, whichever node they originate from.
	UplinkBandwidth float64
	// UplinkLatency is the extra one-way latency of the rack's uplink hop.
	UplinkLatency simtime.Duration
	// Down partitions the rack: cross-rack transfers into or out of it fail
	// with ErrPartitioned until it is cleared. A zeroed UplinkBandwidth cannot
	// model this — the bandwidth pools treat <= 0 as infinite.
	Down bool

	busyUntil simtime.Time
	// OutBytes / InBytes count migration traffic leaving / entering the rack
	// across its uplink.
	OutBytes, InBytes int64
}

// reserveUplink books bytes on the rack's shared uplink, starting no earlier
// than ready (the instant the last byte cleared the source node's NIC —
// store-and-forward), and returns when the uplink is done with them. Infinite
// uplinks pass through without touching busyUntil, so idle-gap reset
// semantics hold however the bandwidth is reconfigured mid-run.
func (r *Rack) reserveUplink(ready simtime.Time, bytes int) simtime.Time {
	r.busyUntil, ready = reservePool(r.busyUntil, r.UplinkBandwidth, ready, bytes)
	return ready
}

// AddRack registers a rack with the given shared uplink bandwidth (bytes/s,
// <= 0 infinite) and per-hop uplink latency.
func (c *Cluster) AddRack(name string, uplinkBW float64, uplinkLat simtime.Duration) *Rack {
	if _, dup := c.racks[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate rack %s", name))
	}
	r := &Rack{Name: name, UplinkBandwidth: uplinkBW, UplinkLatency: uplinkLat}
	c.racks[name] = r
	c.rackOrder = append(c.rackOrder, name)
	return r
}

// Rack returns a registered rack by name (nil if unknown).
func (c *Cluster) Rack(name string) *Rack { return c.racks[name] }

// Racks returns rack names in registration order.
func (c *Cluster) Racks() []string { return append([]string(nil), c.rackOrder...) }

// AddNodeOnRack registers a worker node on a rack. The rack must exist.
func (c *Cluster) AddNodeOnRack(rack, name string, speed, migBandwidth float64) *Node {
	if _, ok := c.racks[rack]; !ok {
		panic(fmt.Sprintf("cluster: add node %s on unknown rack %s", name, rack))
	}
	n := c.AddNode(name, speed, migBandwidth)
	n.Rack = rack
	return n
}

// RackNodes returns the nodes of one rack in registration order.
func (c *Cluster) RackNodes(rack string) []string {
	var out []string
	for _, name := range c.order {
		if c.nodes[name].Rack == rack {
			out = append(out, name)
		}
	}
	return out
}

// LinkLatency derives the data-plane latency of a channel between two
// instances from the topology path: the base latency within a node, a rack,
// or a flat cluster, plus both racks' uplink latencies when the path crosses
// a rack boundary. The engine wires every edge through this, so large
// clusters feel network distance on the data plane, not just during
// migration.
func (c *Cluster) LinkLatency(from, to netsim.Endpoint, base simtime.Duration) simtime.Duration {
	src := c.NodeOf(from)
	dst := c.NodeOf(to)
	if src == dst {
		return base
	}
	if sr, dr := c.racks[src.Rack], c.racks[dst.Rack]; sr != nil && dr != nil && sr != dr {
		return base + sr.UplinkLatency + dr.UplinkLatency
	}
	return base
}

// CrossRackBytes sums migration traffic that crossed any rack uplink.
func (c *Cluster) CrossRackBytes() int64 {
	var sum int64
	for _, name := range c.rackOrder {
		sum += c.racks[name].OutBytes
	}
	return sum
}

// TransferredBytes sums outgoing migration traffic across all nodes.
func (c *Cluster) TransferredBytes() int64 {
	var sum int64
	for _, name := range c.order {
		sum += c.nodes[name].TransferredBytes
	}
	return sum
}

package scaling

import "drrs/internal/dataflow"

// NewRouting builds the routing table for the post-scaling assignment.
func (p Plan) NewRouting(maxKG int) *dataflow.RoutingTable {
	rt := dataflow.NewRoutingTable(maxKG, p.OldParallelism)
	for _, m := range p.Moves {
		rt.SetOwner(m.KeyGroup, m.To)
	}
	return rt
}

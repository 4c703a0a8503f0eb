package cluster

// Used reports how many instances are placed on a node.
func (c *Cluster) Used(node string) int { return c.used[node] }

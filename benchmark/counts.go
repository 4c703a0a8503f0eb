package main

import (
	"drrs/internal/bench"
	"drrs/internal/engine"
)

// runtimeCounts is what one run's still-live runtime shows through the
// Scenario.Inspect hook: exact counts the Outcome alone does not carry.
type runtimeCounts struct {
	filled        bool
	Edges         int
	MsgsDelivered uint64
	BytesDelivred uint64
	Instances     int
	Processed     uint64
	LostRecords   uint64
	StateKeys     int
	StateBytes    int
	Nodes         int
	// Duplicates is the sinks' repeated sequence numbers: exactly-once means 0.
	Duplicates int
	// KeyGroups sizes the state kernels.
	KeyGroups int
}

// fill is the Inspect hook; it only reads. A cell that runs twice (the
// round trip) keeps the last run's counts, matching the Outcome it returns.
func (rc *runtimeCounts) fill(rt *engine.Runtime, _ *bench.Outcome) {
	*rc = runtimeCounts{filled: true, Nodes: len(rt.Cluster.Nodes())}
	rt.EachInstance(func(in *engine.Instance) {
		rc.Instances++
		rc.Processed += in.Processed
		rc.LostRecords += in.LostRecords()
		for _, e := range in.InEdges() {
			rc.Edges++
			rc.MsgsDelivered += e.Delivered
			rc.BytesDelivred += e.DeliveredBytes
		}
		if st := in.Store(); st != nil {
			rc.StateKeys += st.KeyCount()
			rc.StateBytes += st.TotalBytes()
		}
		if cs, ok := in.Logic().(*engine.CollectSink); ok {
			rc.Duplicates += cs.Duplicates()
		}
	})
	for _, op := range rt.Graph.Topological() {
		spec := rt.Graph.Operator(op)
		if spec.KeyedInput && spec.MaxKeyGroups > rc.KeyGroups {
			rc.KeyGroups = spec.MaxKeyGroups
		}
	}
}

// tally sums the exact per-layer counts of a traced pass.
type tally struct {
	Records  int64
	VirtualS float64
	Events   uint64

	rt runtimeCounts // summed over cells, except Nodes/KeyGroups (max)

	LatencySamples              int
	TransferredBytes, CrossRack int64
	TransferRetries             int
	Operations, WavesStabilized int
	KeyGroupsMigrated           int
	DrrsCells, DrrsCellsStable  int
	LpMs, LsMs, LdMs, MigMs     float64 // sums over drrs cells
	// Stable sums the headline trio over the stable drrs cells only.
	Stable                   simStats
	Decisions, Supersessions int
	Faults                   bench.FaultSummary
}

// add folds one successfully traced cell into the tally.
func (t *tally) add(c cell, res *cellResult, out *bench.Outcome, rc *runtimeCounts) {
	t.Records += res.Records
	t.VirtualS += res.VirtualS
	t.Events += res.Events
	t.LatencySamples += out.Latency.Series.Len()
	t.TransferredBytes += out.TransferredBytes
	t.CrossRack += out.CrossRackBytes
	t.Decisions += len(out.Decisions)
	for _, d := range out.Decisions {
		if d.Superseded {
			t.Supersessions++
		}
	}
	var lp, ls, ld, mig float64
	for i := range out.Waves {
		w := &out.Waves[i]
		if w.Scale == nil {
			continue
		}
		t.Operations++
		if w.Stabilized {
			t.WavesStabilized++
		}
		t.KeyGroupsMigrated += w.Scale.UnitsMigrated()
		lp += w.Scale.CumulativePropagationDelay().Millis()
		ls += w.Scale.CumulativeSuspension().Millis()
		ld += w.Scale.AvgDependencyOverhead().Millis()
		mig += w.Scale.MigrationDuration().Millis()
	}
	if c.Mechanism == "drrs" {
		t.DrrsCells++
		if res.Sim.Stable {
			t.DrrsCellsStable++
			t.Stable.PeakMs += res.Sim.PeakMs
			t.Stable.AvgMs += res.Sim.AvgMs
			t.Stable.ScalingS += res.Sim.ScalingS
		}
		t.LpMs += lp
		t.LsMs += ls
		t.LdMs += ld
		t.MigMs += mig
	}
	if f := out.Faults; f != nil {
		t.Faults.Events += f.Events
		t.Faults.Crashes += f.Crashes
		t.Faults.FailedTransfers += f.FailedTransfers
		t.Faults.RecoveredGroups += f.RecoveredGroups
		t.Faults.LostGroups += f.LostGroups
		t.Faults.RecordsLost += f.RecordsLost
		t.TransferRetries += f.RetriedTransfers
	}
	if rc != nil && rc.filled {
		t.rt.Edges += rc.Edges
		t.rt.MsgsDelivered += rc.MsgsDelivered
		t.rt.BytesDelivred += rc.BytesDelivred
		t.rt.Instances += rc.Instances
		t.rt.Processed += rc.Processed
		t.rt.LostRecords += rc.LostRecords
		t.rt.StateKeys += rc.StateKeys
		t.rt.StateBytes += rc.StateBytes
		if rc.Nodes > t.rt.Nodes {
			t.rt.Nodes = rc.Nodes
		}
		t.rt.Duplicates += rc.Duplicates
		if rc.KeyGroups > t.rt.KeyGroups {
			t.rt.KeyGroups = rc.KeyGroups
		}
	}
}

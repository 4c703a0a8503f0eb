// Package chaos implements the deterministic chaos search: randomized fault
// plans (faults.Generate) run against the registered benchmark scenarios,
// with invariant oracles evaluated after every run and a delta-debugging
// shrinker that reduces a failing plan to a minimal spec string.
//
// Everything is deterministic. The fault plan for a (scenario, seed) pair is
// drawn from the named simtime RNG stream "chaos/<scenario>", the runs are
// the same deterministic simulations the golden digests pin, and every run
// is executed twice with the digests compared — so a reported violation
// replays from its seed and spec string alone, with no stored artifacts.
//
// The oracles:
//
//   - conservation: every key group of every keyed operator has a live
//     holder (beyond losses the injector explicitly accounted), and every
//     crash-wiped group is accounted by the recovery flow (recovered, lost,
//     or relocated — the wipe identity).
//   - accounting: records emitted by the sources equal records processed by
//     the keyed operator plus records explicitly counted lost or still queued
//     at live instances; no records parked at dead instances; the sink saw
//     no duplicate sequence numbers (exactly-once).
//   - routing: after a completed run, every upstream routing table entry
//     points at a live instance that holds the group.
//   - liveness: when the plan leaves no permanent disruption, every launched
//     scaling operation completes (or a later re-plan launches and
//     completes).
//   - determinism: two runs of the identical case produce byte-identical
//     outcome digests.
package chaos

import (
	"fmt"

	"drrs/internal/bench"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
)

// Oracle names, as they appear in Violation.Oracle.
const (
	OracleConservation = "conservation"
	OracleAccounting   = "accounting"
	OracleRouting      = "routing"
	OracleLiveness     = "liveness"
	OracleDeterminism  = "determinism"
)

// Finding is one oracle violation observed on one run.
type Finding struct {
	Oracle string
	Detail string
}

// Probe evaluates the state-level oracles (conservation, accounting,
// routing) against the still-live runtime through Scenario.Inspect — the
// Outcome alone doesn't carry per-instance stores or routing tables. The
// liveness and determinism oracles run afterwards on Outcome values alone.
type Probe struct {
	filled   bool
	findings []Finding
}

func (p *Probe) add(oracle, detail string) {
	p.findings = append(p.findings, Finding{Oracle: oracle, Detail: detail})
}

// fill is the Scenario.Inspect hook: read-only against the runtime.
func (p *Probe) fill(rt *engine.Runtime, out *bench.Outcome) {
	p.filled = true
	p.wipeIdentity(out)
	for _, op := range rt.Graph.Topological() {
		spec := rt.Graph.Operator(op)
		if spec == nil || !spec.KeyedInput {
			continue
		}
		p.conservation(rt, out, op, spec)
		if out.Done {
			// Mid-flight state (an in-flight wave at end of run) legitimately
			// leaves routing in transition; only quiesced runs are checked.
			p.routing(rt, op, spec)
		}
	}
	p.accounting(rt, out)
}

// wipeIdentity: every key group a crash destroyed must be accounted for by
// the recovery flow — restored from checkpoint, written off as lost, or
// relocated to a new live home by a superseding migration. This is the oracle
// that catches a recovery path that silently stops running: the per-group
// conservation scan below can be fooled by a re-plan installing empty shells
// at the new owners, but nothing else increments the recovery counters.
func (p *Probe) wipeIdentity(out *bench.Outcome) {
	fs := out.Faults
	if fs == nil {
		return
	}
	if acc := fs.RecoveredGroups + fs.LostGroups + fs.RelocatedGroups; fs.WipedGroups != acc {
		p.add(OracleConservation, fmt.Sprintf(
			"crashes wiped %d key groups but recovery accounted %d (recovered %d + lost %d + relocated %d)",
			fs.WipedGroups, acc, fs.RecoveredGroups, fs.LostGroups, fs.RelocatedGroups))
	}
}

// conservation: every key group has at least one live holder, beyond what
// the injector explicitly wrote off as lost. Extra stale copies at live
// instances are deliberately NOT flagged: fetch-on-demand mechanisms (meces)
// legitimately leave state behind at the source — the harmful condition is
// records routed to two different holders, which the routing oracle owns.
func (p *Probe) conservation(rt *engine.Runtime, out *bench.Outcome, op string, spec *dataflow.OperatorSpec) {
	instances := rt.Instances(op)
	var missing []int
	for kg := 0; kg < spec.MaxKeyGroups; kg++ {
		holders := 0
		for _, in := range instances {
			if !in.Dead() && in.Store().HasGroup(kg) {
				holders++
			}
		}
		if holders == 0 {
			missing = append(missing, kg)
		}
	}
	accountedLost := 0
	if out.Faults != nil {
		accountedLost = out.Faults.LostGroups
	}
	if len(missing) > accountedLost {
		p.add(OracleConservation, fmt.Sprintf(
			"op %s: %d key groups with no live holder (e.g. kg %v), only %d accounted lost",
			op, len(missing), head(missing), accountedLost))
	}
}

// routing: for every key group, all upstream routing tables agree on one
// owner, and that owner is a live instance holding the group.
func (p *Probe) routing(rt *engine.Runtime, op string, spec *dataflow.OperatorSpec) {
	preds := rt.PredecessorInstances(op)
	var stale, split []int
	for kg := 0; kg < spec.MaxKeyGroups; kg++ {
		owner, seen := -1, false
		for _, pre := range preds {
			tbl := pre.Routing(op)
			if tbl == nil {
				continue
			}
			o := tbl.Owner(kg)
			if seen && o != owner {
				split = append(split, kg)
			}
			owner, seen = o, true
		}
		if !seen {
			continue
		}
		if in := rt.Instance(op, owner); in == nil || in.Dead() || !in.Store().HasGroup(kg) {
			stale = append(stale, kg)
		}
	}
	if len(split) > 0 {
		p.add(OracleRouting, fmt.Sprintf(
			"op %s: upstream tables disagree on the owner of %d key groups (e.g. kg %v)",
			op, len(split), head(split)))
	}
	if len(stale) > 0 {
		p.add(OracleRouting, fmt.Sprintf(
			"op %s: %d key groups routed to a dead or stateless owner (e.g. kg %v)",
			op, len(stale), head(stale)))
	}
}

// accounting: emitted = delivered + explicitly lost, and exactly-once at the
// sink. Applicable when the graph has exactly one keyed operator fed
// directly by sources (the chaos substrate's shape); richer pipelines filter
// records mid-stream, where per-operator deltas aren't conserved.
func (p *Probe) accounting(rt *engine.Runtime, out *bench.Outcome) {
	var keyed []string
	for _, op := range rt.Graph.Topological() {
		if spec := rt.Graph.Operator(op); spec != nil && spec.KeyedInput {
			keyed = append(keyed, op)
		}
	}
	if len(keyed) != 1 {
		return
	}
	op := keyed[0]
	for _, pre := range rt.Graph.Predecessors(op) {
		if s := rt.Graph.Operator(pre); s == nil || s.Source == nil {
			return
		}
	}
	var delivered, lost uint64
	queued, deadQueued := 0, 0
	var detail string
	for _, in := range rt.Instances(op) {
		delivered += in.Processed
		if l := in.LostRecords(); l > 0 {
			lost += l
			detail += fmt.Sprintf(" %s:-%d", in.Name(), l)
		}
		// Records still parked on input channels (a wave that straddles a
		// permanent fault can back-pressure past the horizon) are observable
		// in-flight data, not loss. QueuedTotal includes the odd control
		// message, so the check is one-sided: even crediting every queued
		// message as a record, emissions must not exceed the accounted total.
		// The credit only covers LIVE instances: a dead instance will never
		// drain its queue and nothing re-routes it — records parked at a
		// corpse at end of run are losses the harness failed to count.
		q := 0
		for _, e := range in.InEdges() {
			q += e.QueuedTotal()
		}
		if in.Dead() {
			deadQueued += q
		} else {
			queued += q
		}
	}
	if deadQueued > 0 {
		p.add(OracleAccounting, fmt.Sprintf(
			"op %s: %d messages parked at dead instances with no recovery draining them",
			op, deadQueued))
	}
	emitted := uint64(out.Throughput.Total())
	if emitted > delivered+lost+uint64(queued)+uint64(deadQueued) {
		p.add(OracleAccounting, fmt.Sprintf(
			"op %s: emitted %d > delivered %d + lost %d + queued %d (%d records vanished)%s",
			op, emitted, delivered, lost, queued+deadQueued,
			emitted-delivered-lost-uint64(queued)-uint64(deadQueued), detail))
	}
	if delivered+lost > emitted {
		p.add(OracleAccounting, fmt.Sprintf(
			"op %s: delivered %d + lost %d exceeds emitted %d (records duplicated)%s",
			op, delivered, lost, emitted, detail))
	}
	dups := 0
	rt.EachInstance(func(in *engine.Instance) {
		if cs, ok := in.Logic().(*engine.CollectSink); ok {
			dups += cs.Duplicates()
		}
	})
	if dups > 0 {
		p.add(OracleAccounting, fmt.Sprintf("sink saw %d duplicate sequence numbers", dups))
	}
}

// head renders the first few entries of a key-group list.
func head(xs []int) []int {
	if len(xs) > 4 {
		return xs[:4]
	}
	return xs
}

// Package meces reimplements Meces (Gu et al., USENIX ATC 2022) the way the
// DRRS paper's evaluation does: inside the engine, without the external Redis
// cluster, keeping its two core features — Fetch-on-Demand and Hierarchical
// State Organization (sub-key-groups).
//
// Mechanics: one cheap synchronization flips every predecessor's routing
// table at once (lowest propagation delay in Fig 12a), then the new instance
// fetches state sub-units on demand with priority transfers while a
// background process migrates the remainder. Records that reach the *old*
// instance after its sub-unit was fetched away trigger a fetch-back — the
// back-and-forth behaviour that inflates Meces's suspension time (Fig 13) and
// produced the paper's Q7 statistic of one sub-key-group migrating 6.25× on
// average (up to 46×).
package meces

import (
	"drrs/internal/engine"
	"drrs/internal/metrics"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// subKeyGroups is the hierarchical split factor per key group.
const subKeyGroups = 4

// backgroundPause is inserted between background sub-unit pushes so
// on-demand fetches keep priority on the migration path.
const backgroundPause = 2 * simtime.Millisecond

// Mechanism is the Meces baseline.
type Mechanism struct {
	rt   *engine.Runtime
	plan scaling.Plan
	op   *scaling.Tracked

	// A sub-unit's id is its move index × subKeyGroups + its sub-key-group,
	// which is also the background pusher's scan order.
	//
	// loc is each sub-unit's current owner instance index; inFlight marks
	// sub-units on the wire; fetchCount counts transfers per sub-unit and
	// maxFetch is its largest entry (the back-and-forth stat).
	loc        []int
	inFlight   []bool
	fetchCount []int
	maxFetch   int
	// away counts sub-units off their plan target, moving those on the wire,
	// and idleAway those away but not on the wire — the pusher's work left.
	// setUnit keeps them current.
	away, moving, idleAway int
	kgDone                 []bool // by move index
	nDone                  int
	finished               bool
	bgActive               bool
	bgCursor               int
	// afterTransfer, when set, runs after every transfer's install or
	// failure callback (a test seam).
	afterTransfer func()
}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "meces" }

const signal = "meces"

// Begin implements scaling.Mechanism. Fetch-on-Demand makes sub-unit
// locations demand-driven, so a cancelled operation still migrates its
// remaining background units to completion rather than stranding
// sub-key-groups mid-split.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) scaling.Operation {
	m.rt = rt
	m.plan = plan
	m.op = scaling.NewTracked(plan, done)
	n := len(plan.Moves) * subKeyGroups
	m.loc = make([]int, n)
	m.inFlight = make([]bool, n)
	m.fetchCount = make([]int, n)
	m.kgDone = make([]bool, len(plan.Moves))
	for i, mv := range plan.Moves {
		rt.Scale.UnitAssigned(mv.KeyGroup, signal)
		for id := i * subKeyGroups; id < (i+1)*subKeyGroups; id++ {
			m.loc[id] = mv.From
			m.count(id, 1)
		}
	}
	scaling.Deploy(rt, plan, func(added []*engine.Instance) {
		m.op.Deployed()
		for _, in := range rt.Instances(plan.Operator) {
			in.SetHook(&hook{m: m})
		}
		// Single synchronization: flip every predecessor's routing at once.
		rt.Scale.SignalInjected(signal, rt.Sched.Now())
		rt.Sched.After(engine.ControlLatency, func() {
			for _, p := range rt.PredecessorInstances(plan.Operator) {
				tbl := p.Routing(plan.Operator)
				for _, mv := range plan.Moves {
					tbl.SetOwner(mv.KeyGroup, mv.To)
				}
			}
			// New instances own (initially empty) shells of their incoming
			// groups so partially fetched groups can serve state.
			for _, mv := range plan.Moves {
				rt.Instance(plan.Operator, mv.To).Store().OwnGroup(mv.KeyGroup)
			}
			m.ensureBackground()
		})
	})
	return m.op
}

// targetOf returns sub-unit id's plan destination.
func (m *Mechanism) targetOf(id int) int { return m.plan.Moves[id/subKeyGroups].To }

// count adds sub-unit id's contribution, times d, to the away, moving and
// idle-away counters.
func (m *Mechanism) count(id, d int) {
	away := m.loc[id] != m.targetOf(id)
	if away {
		m.away += d
	}
	if m.inFlight[id] {
		m.moving += d
	} else if away {
		m.idleAway += d
	}
}

// setUnit is the one writer of a placed sub-unit's location and wire state.
func (m *Mechanism) setUnit(id, loc int, inFlight bool) {
	m.count(id, -1)
	m.loc[id], m.inFlight[id] = loc, inFlight
	m.count(id, 1)
}

// transfer moves sub-unit id to instance dst and invokes after installation.
func (m *Mechanism) transfer(id, dst int) {
	src := m.loc[id]
	if src == dst || m.inFlight[id] {
		return
	}
	m.setUnit(id, src, true)
	m.fetchCount[id]++
	m.rt.Scale.AddCounter("meces_transfers", 1)
	if m.fetchCount[id] > 1 {
		m.rt.Scale.AddCounter("meces_refetches", 1)
	}
	if m.fetchCount[id] > m.maxFetch {
		m.maxFetch = m.fetchCount[id]
		m.rt.Scale.AddCounter("meces_max_transfers", 1)
	}
	mi, sub := id/subKeyGroups, id%subKeyGroups
	kg := m.plan.Moves[mi].KeyGroup
	from := m.rt.Instance(m.plan.Operator, src)
	to := m.rt.Instance(m.plan.Operator, dst)
	m.rt.Sched.After(engine.ControlLatency, func() {
		g := from.Store().ExtractSubUnit(kg, sub, subKeyGroups)
		m.rt.Scale.FirstMigration(signal, m.rt.Sched.Now())
		bytes := 128 // sub-unit framing overhead
		if g != nil {
			bytes += g.Bytes
		}
		m.rt.Cluster.TransferChecked(from.Endpoint(), to.Endpoint(), bytes, func() {
			to.Store().OwnGroup(kg)
			to.Store().InstallGroup(kg, g)
			m.setUnit(id, dst, false)
			m.checkUnit(mi)
			// Wake every instance, not just the endpoints: a third instance
			// can be suspended on this same sub-unit (its records were routed
			// there under an older wave's plan), and without a wake it parks
			// those records forever. Wakes coalesce, so this is cheap.
			m.wakeAll()
			// A fetch-back may have regressed progress; make sure the
			// background pusher is running to re-migrate it.
			m.ensureBackground()
			if m.afterTransfer != nil {
				m.afterTransfer()
			}
		}, func(error) {
			// Destination unreachable: the sub-unit merges back into its
			// source shell and stays where it was. The background pusher keeps
			// retrying; once the node restarts (or the group is re-planned
			// away), the push converges.
			m.rt.Scale.AddCounter("meces_fails", 1)
			from.Store().OwnGroup(kg)
			from.Store().InstallGroup(kg, g)
			m.setUnit(id, src, false)
			// Every waiter re-evaluates: the demanding side re-issues its
			// fetch (the retry converges once the fault heals or recovery
			// re-places the source), and third-party waiters unpark.
			m.wakeAll()
			m.ensureBackground()
			if m.afterTransfer != nil {
				m.afterTransfer()
			}
		})
	})
}

// wakeAll wakes every instance of the scaled operator in index order.
func (m *Mechanism) wakeAll() {
	for _, in := range m.rt.Instances(m.plan.Operator) {
		in.Wake()
	}
}

// atTarget reports whether every sub-unit of move mi sits at its target.
func (m *Mechanism) atTarget(mi int) bool {
	to := m.plan.Moves[mi].To
	for id := mi * subKeyGroups; id < (mi+1)*subKeyGroups; id++ {
		if m.loc[id] != to {
			return false
		}
	}
	return true
}

// checkUnit marks move mi's key group migrated once all its sub-units have
// reached the plan target, and finishes the scaling when everything has
// settled.
func (m *Mechanism) checkUnit(mi int) {
	if m.finished {
		return // metrics are frozen; post-completion wobble is cleanup only
	}
	if m.kgDone[mi] {
		// A fetch-back can regress a finished group; background migration
		// will push it again.
		if !m.atTarget(mi) {
			m.kgDone[mi] = false
			m.nDone--
			m.op.SetMoved(m.nDone)
		}
		return
	}
	if !m.atTarget(mi) {
		return
	}
	m.kgDone[mi] = true
	m.nDone++
	m.op.SetMoved(m.nDone)
	m.rt.Scale.UnitMigrated(m.plan.Moves[mi].KeyGroup, m.rt.Sched.Now())
	m.maybeFinish()
}

func (m *Mechanism) maybeFinish() {
	if m.finished || m.nDone < len(m.plan.Moves) || !m.settled() {
		return
	}
	m.finished = true
	m.rt.Scale.MarkScaleEnd(m.rt.Sched.Now())
	// Unlike barrier-synchronized mechanisms, Meces cannot tear its ownership
	// machinery down at this point: records for moved groups may still be
	// queued or in flight toward the *old* instances, and serving them
	// requires further fetch-backs. The hooks and (empty) group shells stay
	// installed; the background pusher keeps re-settling any post-completion
	// ping-pong. This mirrors the real system, where state ownership lives in
	// the external store for the job's lifetime.
	m.op.Finish()
}

// ensureBackground (re)starts the background pusher if it is not running.
// It keeps running after completion too: post-completion fetch-backs must be
// pushed back to their plan targets.
func (m *Mechanism) ensureBackground() {
	if m.bgActive {
		return
	}
	m.bgActive = true
	m.rt.Sched.After(backgroundPause, m.backgroundStep)
}

// backgroundStep pushes the next sub-unit that still lives away from its
// target, pacing pushes so on-demand fetches dominate the migration path.
// With no idle away sub-unit it skips the scan: a fruitless full scan would
// leave bgCursor where it is, modulo the unit count.
func (m *Mechanism) backgroundStep() {
	m.bgActive = false
	if m.idleAway > 0 {
		n := len(m.loc)
		for scanned := 0; scanned < n; scanned++ {
			id := m.bgCursor % n
			m.bgCursor++
			if m.loc[id] != m.targetOf(id) && !m.inFlight[id] {
				m.rt.Scale.AddCounter("meces_background", 1)
				m.transfer(id, m.targetOf(id))
				break
			}
		}
	}
	if !m.settled() {
		m.ensureBackground()
	} else {
		m.maybeFinish()
	}
}

// settled reports whether every sub-unit sits at its target, none in flight.
func (m *Mechanism) settled() bool { return m.away == 0 && m.moving == 0 }

// FetchStats reports the back-and-forth statistics the paper quotes for Q7
// from one wave's counters: the mean and max number of times a sub-key-group
// was transferred, over the sub-key-groups transferred at least once (every
// transfer but a refetch is a sub-key-group's first).
func FetchStats(m *metrics.ScalingMetrics) (mean float64, max int) {
	transfers := m.Counter("meces_transfers")
	units := transfers - m.Counter("meces_refetches")
	if units == 0 {
		return 0, 0
	}
	return float64(transfers) / float64(units), int(m.Counter("meces_max_transfers"))
}

// hook gates record processing on sub-unit locality and issues on-demand
// (and fetch-back) transfers.
type hook struct {
	engine.BaseHook
	m *Mechanism
}

func (h *hook) Processable(in *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	m := h.m
	mi, moving := m.plan.MoveIndex(r.KeyGroup)
	if !moving {
		return true
	}
	id := mi*subKeyGroups + state.SubUnitOf(r.Key, subKeyGroups)
	if m.loc[id] == in.Index && !m.inFlight[id] {
		return true
	}
	// Fetch on demand toward whoever needs the record — including the old
	// instance (fetch-back), which is where the back-and-forth cost comes
	// from.
	if !m.inFlight[id] {
		m.rt.Scale.AddCounter("meces_demand_fetches", 1)
		m.transfer(id, in.Index)
	}
	return false
}

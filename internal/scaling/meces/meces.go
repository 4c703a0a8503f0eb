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
	"fmt"

	"drrs/internal/cluster"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/state"
)

// Mechanism is the Meces baseline.
type Mechanism struct {
	// SubKeyGroups is the hierarchical split factor per key group (default 4).
	SubKeyGroups int
	// BackgroundPause is inserted between background sub-unit pushes so
	// on-demand fetches keep priority on the migration path (default 2 ms).
	BackgroundPause simtime.Duration

	rt   *engine.Runtime
	plan scaling.Plan
	op   *scaling.Tracked

	// loc tracks each migrating sub-unit's current owner instance index;
	// inFlight marks sub-units on the wire.
	loc      map[subUnit]int
	inFlight map[subUnit]bool
	// fetchCount counts transfers per sub-unit (the back-and-forth stat).
	fetchCount map[subUnit]int
	target     map[int]int // kg → plan destination
	kgDone     map[int]bool
	finished   bool
	bgActive   bool
	bgCursor   int
	units      []subUnit
}

type subUnit struct{ kg, sub int }

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "meces" }

const signal = "meces"

// Begin implements scaling.Mechanism. Fetch-on-Demand makes sub-unit
// locations demand-driven, so a cancelled operation still migrates its
// remaining background units to completion rather than stranding
// sub-key-groups mid-split.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) scaling.Operation {
	if m.SubKeyGroups <= 0 {
		m.SubKeyGroups = 4
	}
	if m.BackgroundPause <= 0 {
		m.BackgroundPause = simtime.Ms(2)
	}
	m.rt = rt
	m.plan = plan
	m.op = scaling.NewTracked(plan, done)
	m.loc = make(map[subUnit]int)
	m.inFlight = make(map[subUnit]bool)
	m.fetchCount = make(map[subUnit]int)
	m.target = make(map[int]int)
	m.kgDone = make(map[int]bool)
	for _, mv := range plan.Moves {
		m.target[mv.KeyGroup] = mv.To
		rt.Scale.UnitAssigned(mv.KeyGroup, signal)
		for s := 0; s < m.SubKeyGroups; s++ {
			u := subUnit{kg: mv.KeyGroup, sub: s}
			m.loc[u] = mv.From
			m.units = append(m.units, u)
		}
	}
	scaling.Deploy(rt, plan, func(added []*engine.Instance) {
		m.op.Deployed()
		for _, in := range rt.Instances(plan.Operator) {
			in.SetHook(&hook{m: m})
		}
		// Single synchronization: flip every predecessor's routing at once.
		rt.Scale.SignalInjected(signal, rt.Sched.Now())
		rt.Sched.After(rt.Cfg.ControlLatency, func() {
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

// transfer moves one sub-unit to instance dst and invokes after installation.
func (m *Mechanism) transfer(u subUnit, dst int) {
	src := m.loc[u]
	if src == dst || m.inFlight[u] {
		return
	}
	m.inFlight[u] = true
	m.fetchCount[u]++
	m.rt.Scale.AddCounter("meces_transfers", 1)
	if m.fetchCount[u] > 1 {
		m.rt.Scale.AddCounter("meces_refetches", 1)
	}
	from := m.rt.Instance(m.plan.Operator, src)
	to := m.rt.Instance(m.plan.Operator, dst)
	m.rt.Sched.After(m.rt.Cfg.ControlLatency, func() {
		g := from.Store().ExtractSubUnit(u.kg, u.sub, m.SubKeyGroups)
		m.rt.Scale.FirstMigration(signal, m.rt.Sched.Now())
		bytes := 128 // sub-unit framing overhead
		if g != nil {
			bytes += g.Bytes
		}
		m.rt.Cluster.TransferChecked(from.Endpoint(), to.Endpoint(), bytes, func() {
			to.Store().OwnGroup(u.kg)
			to.Store().InstallGroup(u.kg, g)
			m.loc[u] = dst
			m.inFlight[u] = false
			m.checkUnit(u.kg)
			// Wake every instance, not just the endpoints: a third instance
			// can be suspended on this same sub-unit (its records were routed
			// there under an older wave's plan), and without a wake it parks
			// those records forever. Wakes coalesce, so this is cheap.
			m.wakeAll()
			// A fetch-back may have regressed progress; make sure the
			// background pusher is running to re-migrate it.
			m.ensureBackground()
		}, func(err error) {
			// Destination unreachable: the sub-unit merges back into its
			// source shell and stays where it was. The background pusher keeps
			// retrying; once the node restarts (or the group is re-planned
			// away), the push converges.
			if cluster.IsTransient(err) {
				m.rt.Scale.AddCounter("meces_fails_transient", 1)
			} else {
				m.rt.Scale.AddCounter("meces_fails_fatal", 1)
			}
			from.Store().OwnGroup(u.kg)
			from.Store().InstallGroup(u.kg, g)
			m.inFlight[u] = false
			// Every waiter re-evaluates: the demanding side re-issues its
			// fetch (the retry converges once the fault heals or recovery
			// re-places the source), and third-party waiters unpark.
			m.wakeAll()
			m.ensureBackground()
		})
	})
}

// wakeAll wakes every instance of the scaled operator in index order.
func (m *Mechanism) wakeAll() {
	for _, in := range m.rt.Instances(m.plan.Operator) {
		in.Wake()
	}
}

// checkUnit marks kg migrated once all its sub-units have reached the plan
// target, and finishes the scaling when everything has settled.
func (m *Mechanism) checkUnit(kg int) {
	if m.finished {
		return // metrics are frozen; post-completion wobble is cleanup only
	}
	if m.kgDone[kg] {
		// A fetch-back can regress a finished group; background migration
		// will push it again.
		for s := 0; s < m.SubKeyGroups; s++ {
			if m.loc[subUnit{kg: kg, sub: s}] != m.target[kg] {
				delete(m.kgDone, kg)
				m.op.SetMoved(len(m.kgDone))
				return
			}
		}
		return
	}
	for s := 0; s < m.SubKeyGroups; s++ {
		if m.loc[subUnit{kg: kg, sub: s}] != m.target[kg] {
			return
		}
	}
	m.kgDone[kg] = true
	m.op.SetMoved(len(m.kgDone))
	m.rt.Scale.UnitMigrated(kg, m.rt.Sched.Now())
	m.maybeFinish()
}

func (m *Mechanism) maybeFinish() {
	if m.finished || len(m.kgDone) < len(m.target) {
		return
	}
	for u, l := range m.loc {
		if l != m.target[u.kg] || m.inFlight[u] {
			return
		}
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
	m.rt.Sched.After(m.BackgroundPause, m.backgroundStep)
}

// backgroundStep pushes the next sub-unit that still lives away from its
// target, pacing pushes so on-demand fetches dominate the migration path.
func (m *Mechanism) backgroundStep() {
	m.bgActive = false
	for scanned := 0; scanned < len(m.units); scanned++ {
		u := m.units[m.bgCursor%len(m.units)]
		m.bgCursor++
		if m.loc[u] != m.target[u.kg] && !m.inFlight[u] {
			m.rt.Scale.AddCounter("meces_background", 1)
			m.transfer(u, m.target[u.kg])
			break
		}
	}
	if !m.settled() {
		m.ensureBackground()
	} else {
		m.maybeFinish()
	}
}

func (m *Mechanism) settled() bool {
	for u, l := range m.loc {
		if l != m.target[u.kg] || m.inFlight[u] {
			return false
		}
	}
	return true
}

func (m *Mechanism) moveOf(kg int) struct{ From, To int } {
	for _, mv := range m.plan.Moves {
		if mv.KeyGroup == kg {
			return struct{ From, To int }{mv.From, mv.To}
		}
	}
	panic(fmt.Sprintf("meces: kg %d not in plan", kg))
}

// FetchStats reports the back-and-forth statistics the paper quotes for Q7:
// the mean and max number of times a sub-key-group was transferred.
func (m *Mechanism) FetchStats() (mean float64, max int) {
	if len(m.fetchCount) == 0 {
		return 0, 0
	}
	var sum int
	for _, c := range m.fetchCount {
		sum += c
		if c > max {
			max = c
		}
	}
	return float64(sum) / float64(len(m.fetchCount)), max
}

// hook gates record processing on sub-unit locality and issues on-demand
// (and fetch-back) transfers.
type hook struct {
	engine.BaseHook
	m *Mechanism
}

func (h *hook) Processable(in *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	if _, isMoved := h.m.target[r.KeyGroup]; !isMoved {
		return true
	}
	u := subUnit{kg: r.KeyGroup, sub: state.SubUnitOf(r.Key, h.m.SubKeyGroups)}
	if h.m.loc[u] == in.Index && !h.m.inFlight[u] {
		return true
	}
	// Fetch on demand toward whoever needs the record — including the old
	// instance (fetch-back), which is where the back-and-forth cost comes
	// from.
	if !h.m.inFlight[u] {
		h.m.rt.Scale.AddCounter("meces_demand_fetches", 1)
		h.m.transfer(u, in.Index)
	}
	return false
}

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
	finished               bool
	bgActive               bool
	bgCursor               int
	// xfers holds each sub-unit's transfer record, by id.
	xfers []subTransfer
	// spare holds chunks no transfer owns. A transfer takes one at
	// extraction and returns it in its install or failure callback.
	spare []*state.Chunk
	// afterTransfer, when set, runs after every transfer's install or
	// failure callback with the transfer's chunk (a test seam).
	afterTransfer func(*state.Chunk)
}

// Name implements scaling.Mechanism.
func (m *Mechanism) Name() string { return "meces" }

const signal = "meces"

// Begin implements scaling.Mechanism. Fetch-on-Demand makes sub-unit
// locations demand-driven, so a cancelled operation still migrates its
// remaining background units to completion rather than stranding
// sub-key-groups mid-split.
func (m *Mechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) *scaling.Tracked {
	m.rt = rt
	m.plan = plan
	m.op = scaling.NewTracked(rt, plan, done)
	// Meces settles as a whole: maybeFinish pays this once every sub-unit
	// sits at its target.
	m.op.Owe(1)
	n := len(plan.Moves) * subKeyGroups
	m.loc = make([]int, n)
	m.inFlight = make([]bool, n)
	m.fetchCount = make([]int, n)
	m.kgDone = make([]bool, len(plan.Moves))
	m.xfers = make([]subTransfer, n)
	for id := range m.xfers {
		x := &m.xfers[id]
		x.m, x.id = m, id
		x.startFn, x.doneFn, x.failFn = x.start, x.installed, x.failed
	}
	for i, mv := range plan.Moves {
		rt.Scale.UnitAssigned(mv.KeyGroup, signal)
		for id := i * subKeyGroups; id < (i+1)*subKeyGroups; id++ {
			m.loc[id] = mv.From
			m.count(id, 1)
		}
	}
	scaling.Deploy(rt, plan, func() {
		for _, in := range rt.Instances(plan.Operator) {
			in.SetHook(&hook{m: m})
		}
		// Single synchronization: flip every predecessor's routing at once.
		rt.Scale.SignalInjected(signal, rt.Sched.Now())
		rt.Sched.After(engine.ControlLatency, func() {
			scaling.RouteToDestinations(rt, plan)
			// New instances own (initially empty) shells of their incoming
			// groups so partially fetched groups can serve state.
			for _, mv := range plan.Moves {
				rt.Instance(plan.Operator, mv.To).Store().OwnGroup(mv.KeyGroup)
			}
			m.ensureBackground()
		})
		m.op.Deployed()
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

// subTransfer is one sub-unit's transfer record. inFlight admits one
// transfer per sub-unit at a time, so each id keeps one record, and the
// three callbacks bound to it at Begin serve every transfer of the id in
// turn.
type subTransfer struct {
	m  *Mechanism
	id int
	// src and dst are the current transfer's endpoints by instance index,
	// from and to the instances, and c the chunk it extracted.
	src, dst int
	from, to *engine.Instance
	c        *state.Chunk

	startFn, doneFn func()
	failFn          func(error)
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
	x := &m.xfers[id]
	x.src, x.dst = src, dst
	x.from = m.rt.Instance(m.plan.Operator, src)
	x.to = m.rt.Instance(m.plan.Operator, dst)
	m.rt.Sched.After(engine.ControlLatency, x.startFn)
}

// start extracts the sub-unit into a spare chunk and puts it on the wire.
func (x *subTransfer) start() {
	m := x.m
	kg := m.plan.Moves[x.id/subKeyGroups].KeyGroup
	x.c = m.takeChunk()
	x.from.Store().ExtractSubUnit(kg, x.id%subKeyGroups, subKeyGroups, x.c)
	m.rt.Scale.FirstMigration(signal, m.rt.Sched.Now())
	bytes := 128 + x.c.Bytes // sub-unit framing overhead plus the state
	m.rt.Cluster.TransferChecked(x.from.Endpoint(), x.to.Endpoint(), bytes, x.doneFn, x.failFn)
}

// installed lands the chunk at the destination. It reads what it needs of
// the record first: once setUnit clears inFlight, the record belongs to the
// id's next transfer.
func (x *subTransfer) installed() {
	m, id, dst, to, c := x.m, x.id, x.dst, x.to, x.c
	x.c = nil
	mi := id / subKeyGroups
	to.Store().InstallChunk(m.plan.Moves[mi].KeyGroup, c)
	m.spare = append(m.spare, c)
	m.setUnit(id, dst, false)
	m.checkUnit(mi)
	// Wake every instance, not just the endpoints: a third instance can be
	// suspended on this same sub-unit (its records were routed there under
	// an older wave's plan), and without a wake it parks those records
	// forever. Wakes coalesce, so this is cheap.
	m.wakeAll()
	// A fetch-back may have regressed progress; make sure the background
	// pusher is running to re-migrate it.
	m.ensureBackground()
	if m.afterTransfer != nil {
		m.afterTransfer(c)
	}
}

// failed handles an unreachable destination: the sub-unit merges back into
// its source shell and stays where it was. The background pusher keeps
// retrying; once the node restarts (or the group is re-planned away), the
// push converges. Like installed, it reads the record first.
func (x *subTransfer) failed(error) {
	m, id, src, from, c := x.m, x.id, x.src, x.from, x.c
	x.c = nil
	m.rt.Scale.AddCounter("meces_fails", 1)
	from.Store().InstallChunk(m.plan.Moves[id/subKeyGroups].KeyGroup, c)
	m.spare = append(m.spare, c)
	m.setUnit(id, src, false)
	// Every waiter re-evaluates: the demanding side re-issues its fetch (the
	// retry converges once the fault heals or recovery re-places the
	// source), and third-party waiters unpark.
	m.wakeAll()
	m.ensureBackground()
	if m.afterTransfer != nil {
		m.afterTransfer(c)
	}
}

// takeChunk returns a spare chunk, or a new one when none is spare.
func (m *Mechanism) takeChunk() *state.Chunk {
	n := len(m.spare)
	if n == 0 {
		return &state.Chunk{}
	}
	c := m.spare[n-1]
	m.spare = m.spare[:n-1]
	return c
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
			m.op.Unlanded()
		}
		return
	}
	if !m.atTarget(mi) {
		return
	}
	m.kgDone[mi] = true
	m.op.Landed(m.plan.Moves[mi].KeyGroup)
	m.maybeFinish()
}

func (m *Mechanism) maybeFinish() {
	if pr := m.op.Progress(); m.finished || pr.Moved < pr.Total || !m.settled() {
		return
	}
	m.finished = true
	// Unlike barrier-synchronized mechanisms, Meces cannot tear its ownership
	// machinery down at this point: records for moved groups may still be
	// queued or in flight toward the *old* instances, and serving them
	// requires further fetch-backs. The hooks and (empty) group shells stay
	// installed; the background pusher keeps re-settling any post-completion
	// ping-pong. This mirrors the real system, where state ownership lives in
	// the external store for the job's lifetime.
	m.op.Pay(1)
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

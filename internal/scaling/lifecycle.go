package scaling

import "drrs/internal/engine"

// Phase identifies where an in-flight scaling operation stands in its
// lifecycle. Every mechanism moves through the same coarse phases — physical
// deployment, state migration, protocol drain — even though the fine
// structure (subscales, rounds, on-demand fetches) differs per mechanism.
type Phase uint8

const (
	// PhaseDeploy: resources are initializing (SetupDelay, instance wiring;
	// stop-restart's checkpoint and restore); the new instances do not exist
	// yet.
	PhaseDeploy Phase = iota
	// PhaseMigrate: key groups are in flight between instances.
	PhaseMigrate
	// PhaseDrain: every planned key group has landed, but the mechanism's
	// protocol is still settling (re-route channels draining, final barriers,
	// restart of halted instances) before it reports completion.
	PhaseDrain
	// PhaseDone: the operation reported completion (or was fully superseded).
	PhaseDone
)

// String renders the phase for reports and audit trails.
func (p Phase) String() string {
	switch p {
	case PhaseDeploy:
		return "deploy"
	case PhaseMigrate:
		return "migrate"
	case PhaseDrain:
		return "drain"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// Progress is a point-in-time report of an in-flight scaling operation —
// what a controller sees when it polls mid-operation to decide whether a
// straggling migration should be superseded.
type Progress struct {
	Phase Phase
	// Moved and Total count migrated versus planned key groups.
	Moved, Total int
	// Cancelled reports the operation was asked to stand down. The operation
	// still runs launched work to completion (state is never stranded
	// mid-flight) and fires its done callback when settled.
	Cancelled bool
}

// Tracked is the live handle every mechanism's Begin returns and the one
// place a mechanism reports a lifecycle fact, as it happens: NewTracked marks
// the scale start, Deployed ends the deploy phase, Landed and Unlanded count
// planned key groups at their destination, and Owe and Pay count the units
// of work the mechanism must settle. Tracked alone decides completion: the
// operation finishes once it is deployed and nothing is owed, so a plan with
// no work finishes at deploy. Finishing marks the scale end and fires done.
// Observers poll Progress on the simulated clock, and a superseding request
// Cancels the operation per the paper's concurrent-execution rule 1. After a
// Cancel, the superseding plan must come from PlanFromPlacement so key groups
// the cancelled operation already moved are not migrated twice.
type Tracked struct {
	rt           *engine.Runtime
	total, moved int
	owed         int
	done         func()
	standDown    func()
	deployed     bool
	finished     bool
	cancelled    bool
}

// NewTracked returns the handle for plan and marks the scale start in rt's
// metrics; done (optional) fires once, when the operation finishes.
func NewTracked(rt *engine.Runtime, plan Plan, done func()) *Tracked {
	rt.Scale.MarkScaleStart(rt.Sched.Now())
	return &Tracked{rt: rt, total: len(plan.Moves), done: done}
}

// OnCancel makes Cancel honored: after recording the request, Cancel runs
// standDown, which must stop launching new migration work and let the
// operation settle early (DRRS's DR coordinator drops its unlaunched
// subscales).
func (o *Tracked) OnCancel(standDown func()) { o.standDown = standDown }

// Deployed records that the new instances exist and migration may begin,
// and finishes the operation if nothing is owed. It finishes and fires done
// right here, so a mechanism calls it last in its deploy step, after its
// hooks are installed.
func (o *Tracked) Deployed() {
	o.deployed = true
	o.settle()
}

// Owe declares n more units of work (subscales, barrier rounds, key-group
// moves) the operation must settle before it can finish.
func (o *Tracked) Owe(n int) { o.owed += n }

// Pay settles n units of owed work, and finishes the operation if it is
// deployed and nothing else is owed. Paying more than is owed panics.
func (o *Tracked) Pay(n int) {
	if o.owed -= n; o.owed < 0 {
		panic("scaling: operation paid more work than it owed")
	}
	o.settle()
}

// settle finishes the operation, once, when it is deployed and owes nothing.
func (o *Tracked) settle() {
	if !o.finished && o.deployed && o.owed == 0 {
		o.finish()
	}
}

// Landed records that planned key group kg sits at its destination, and the
// instant it first did.
func (o *Tracked) Landed(kg int) {
	o.moved++
	o.rt.Scale.UnitMigrated(kg, o.rt.Sched.Now())
}

// Unlanded records that a landed group left its destination again (a Meces
// fetch-back); the instant it first landed stands.
func (o *Tracked) Unlanded() { o.moved-- }

// finish records completion, marks the scale end on the runtime's current
// metrics collector, and then fires the done callback — in that order,
// because done may launch the next operation and swap the collector.
func (o *Tracked) finish() {
	o.finished = true
	o.rt.Scale.MarkScaleEnd(o.rt.Sched.Now())
	if o.done != nil {
		o.done()
	}
}

// Progress reports the operation's current phase and migration counts.
func (o *Tracked) Progress() Progress {
	p := Progress{Moved: o.moved, Total: o.total, Cancelled: o.cancelled}
	switch {
	case o.finished:
		p.Phase = PhaseDone
	case !o.deployed:
		p.Phase = PhaseDeploy
	case p.Moved < p.Total:
		p.Phase = PhaseMigrate
	default:
		p.Phase = PhaseDrain
	}
	return p
}

// Cancel asks the operation to stand down: stop launching new migration
// work, finish what is in flight, then report done. The request is always
// recorded (Progress().Cancelled). Cancel returns true only when the
// mechanism registered a stand-down with OnCancel; the others run their plan
// to completion, and the supersessor launches once the old operation's done
// fires.
func (o *Tracked) Cancel() bool {
	o.cancelled = true
	if o.standDown == nil {
		return false
	}
	o.standDown()
	return true
}

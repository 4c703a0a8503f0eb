package scaling

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

// Operation is the live handle Begin returns: observers poll Progress on the
// simulated clock, and a superseding request Cancels the operation per the
// paper's concurrent-execution rule 1. After a Cancel, the superseding plan
// must come from PlanFromPlacement so key groups the cancelled operation
// already moved are not migrated twice.
type Operation interface {
	// Progress reports the operation's current phase and migration counts.
	Progress() Progress
	// Cancel asks the operation to stand down: stop launching new migration
	// work, finish what is in flight, then report done. It returns true when
	// the mechanism honors cancellation; mechanisms that cannot stand down
	// (everything but DRRS's DR coordinator) record the request, return false
	// and run their plan to completion — the supersessor then launches once
	// the old operation's done fires.
	Cancel() bool
}

// Tracked is the Operation every mechanism reports its phases to: the
// mechanism tells it the three facts a phase is made of — Deployed, SetMoved,
// Finish — as they happen. Its Cancel is recorded (Progress().Cancelled) but
// not honored; a mechanism that can stand down (DRRS's DR coordinator) embeds
// it and overrides Cancel.
type Tracked struct {
	total, moved int
	done         func()
	deployed     bool
	finished     bool
	cancelled    bool
}

// NewTracked returns the handle for plan; done (optional) fires from Finish.
func NewTracked(plan Plan, done func()) *Tracked {
	return &Tracked{total: len(plan.Moves), done: done}
}

// Deployed records that the new instances exist and migration may begin.
func (o *Tracked) Deployed() { o.deployed = true }

// SetMoved records how many planned key groups sit at their destination. The
// count may fall: a Meces fetch-back regresses a group that had landed.
func (o *Tracked) SetMoved(n int) { o.moved = n }

// Finish records completion and fires the done callback.
func (o *Tracked) Finish() {
	o.finished = true
	if o.done != nil {
		o.done()
	}
}

// Progress implements Operation.
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

// Cancel implements Operation: the request is recorded, never honored.
func (o *Tracked) Cancel() bool {
	o.cancelled = true
	return false
}

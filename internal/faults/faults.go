// Package faults is the deterministic fault-injection and recovery layer: a
// declarative Plan of scheduled disruptions — node crashes with optional
// restart, straggler onset, rack-uplink degradation or partition — executed
// on the simulated clock against the cluster and engine, plus the recovery
// machinery that restores crashed instances from periodic state checkpoints.
//
// Determinism rules:
//
//   - Every fault fires at a planned virtual-time offset; the dedicated
//     "faults" RNG stream is consulted only for per-fault Jitter, so plans
//     without jitter need no randomness at all.
//   - The Injector (and its checkpointer) is only created when a Plan is
//     present, so unfaulted runs schedule no extra events and stay
//     byte-identical with pre-fault-layer builds.
//   - Recovery is closed-loop: crashed instances are re-placed through the
//     cluster's placement policy, their key groups restored from the newest
//     snapshot that held them, and the progress lost since that snapshot is
//     re-earned as replay time (ChargeBusy) rather than silently forgiven.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"drrs/internal/cluster"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// Kind names a fault class.
type Kind string

// The supported fault kinds.
const (
	// Crash kills a node: its instances die in place (state wiped, inputs
	// keep queueing) and are revived after the plan's RecoveryDelay —
	// re-placed via the placement policy, state restored from checkpoint.
	Crash Kind = "crash"
	// Straggle multiplies a node's processing speed by Factor mid-run.
	Straggle Kind = "straggle"
	// Uplink degrades a rack's shared uplink to Bandwidth bytes/s, or
	// partitions the rack entirely when Bandwidth <= 0.
	Uplink Kind = "uplink"
)

// Fault is one scheduled disruption.
type Fault struct {
	Kind Kind
	// At is the onset offset from the injector's start.
	At simtime.Duration
	// Node targets crash/straggle faults; Rack targets uplink faults.
	Node string
	Rack string
	// Restart, when positive, brings a crashed node back at At+Restart.
	Restart simtime.Duration
	// Factor is the straggler speed multiplier (0.3 → node runs at 30%).
	Factor float64
	// Bandwidth is the degraded uplink rate in bytes/s; <= 0 partitions the
	// rack (bandwidth pools treat zero as infinite, so partition is a flag).
	Bandwidth float64
	// Heal, when positive, reverts a straggle/uplink fault at At+Heal.
	Heal simtime.Duration
	// Jitter is the relative uniform jitter applied to At through the
	// dedicated faults RNG stream (0 = exactly on schedule).
	Jitter float64
}

// Plan is a declarative fault schedule plus the recovery knobs.
type Plan struct {
	// CheckpointEvery is the periodic state-snapshot cadence (default 2s).
	CheckpointEvery simtime.Duration
	// RecoveryDelay is how long crashed instances stay down before the
	// recovery path revives them (default 1s) — detection plus restart cost.
	// A negative delay (spec "recovery=off") never revives them: the crash's
	// victims stay dead and their state stays gone, which is how the chaos
	// search's oracles are shown a genuine recovery defect to find.
	RecoveryDelay simtime.Duration
	// TransferRetries, when positive, arms the cluster's transfer retry
	// policy: transient transfer failures (partitioned uplink, restartable
	// crash) re-attempt up to this many times with capped exponential
	// backoff. Zero keeps the historical fail-fast behavior.
	TransferRetries int
	// RetryBase and RetryCap shape the backoff (defaults 250ms and 2s; only
	// meaningful when TransferRetries > 0).
	RetryBase simtime.Duration
	RetryCap  simtime.Duration
	Faults    []Fault
}

func (p *Plan) fillDefaults() {
	if p.CheckpointEvery <= 0 {
		p.CheckpointEvery = 2 * simtime.Second
	}
	if p.RecoveryDelay == 0 {
		p.RecoveryDelay = simtime.Second
	}
	if p.TransferRetries > 0 {
		if p.RetryBase <= 0 {
			p.RetryBase = 250 * simtime.Millisecond
		}
		if p.RetryCap <= 0 {
			p.RetryCap = 2 * simtime.Second
		}
	}
}

// Spec renders the plan in the exact grammar ParseSpec reads, knobs first,
// so any plan — generated ones included — round-trips through a -faults flag
// value. A shrunk chaos repro is reported this way: the spec string plus the
// scenario seed fully determine the failing run.
func (p *Plan) Spec() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.CheckpointEvery > 0 {
		parts = append(parts, "ckpt="+fmtDur(p.CheckpointEvery))
	}
	switch {
	case p.RecoveryDelay < 0:
		parts = append(parts, "recovery=off")
	case p.RecoveryDelay > 0:
		parts = append(parts, "recovery="+fmtDur(p.RecoveryDelay))
	}
	if p.TransferRetries > 0 {
		parts = append(parts, fmt.Sprintf("retry=%d", p.TransferRetries))
		if p.RetryBase > 0 {
			parts = append(parts, "retrybase="+fmtDur(p.RetryBase))
		}
		if p.RetryCap > 0 {
			parts = append(parts, "retrycap="+fmtDur(p.RetryCap))
		}
	}
	for _, f := range p.Faults {
		s := fmt.Sprintf("%s@%s", f.Kind, fmtDur(f.At))
		var args []string
		if f.Node != "" {
			args = append(args, "node="+f.Node)
		}
		if f.Rack != "" {
			args = append(args, "rack="+f.Rack)
		}
		if f.Kind == Straggle {
			args = append(args, fmt.Sprintf("factor=%g", f.Factor))
		}
		if f.Kind == Uplink {
			args = append(args, fmt.Sprintf("bw=%g", f.Bandwidth))
		}
		if f.Restart > 0 {
			args = append(args, "restart="+fmtDur(f.Restart))
		}
		if f.Heal > 0 {
			args = append(args, "heal="+fmtDur(f.Heal))
		}
		if f.Jitter > 0 {
			args = append(args, fmt.Sprintf("jitter=%g", f.Jitter))
		}
		if len(args) > 0 {
			s += ":" + strings.Join(args, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// fmtDur renders a simulated duration in the Go syntax parseDur reads.
func fmtDur(d simtime.Duration) string {
	return (time.Duration(d) * time.Microsecond).String()
}

// Stats aggregates what the injector did and what recovery cost.
type Stats struct {
	// Events counts fault onsets (heals and restarts excluded).
	Events int
	// Crashes counts crash faults executed.
	Crashes int
	// FailedTransfers counts state transfers the cluster reported failed.
	FailedTransfers int
	// RetriedTransfers counts transfer re-attempts scheduled by the
	// cluster's retry policy (only nonzero when the plan arms it).
	RetriedTransfers int
	// WipedGroups counts key groups destroyed by crashes (state discarded at
	// Instance.Fail). Recovery must account for every one of them:
	// WipedGroups == RecoveredGroups + LostGroups + RelocatedGroups is an
	// invariant of a healthy harness, and the chaos search's conservation
	// oracle checks it — it is what catches a recovery path that silently
	// stops running.
	WipedGroups int
	// RecoveredGroups counts key groups restored from checkpoint.
	RecoveredGroups int
	// LostGroups counts key groups no snapshot covered (restored empty).
	LostGroups int
	// RelocatedGroups counts wiped key groups that found a new live home
	// before recovery ran (a superseding migration moved them), so recovery
	// left them alone rather than forking their state.
	RelocatedGroups int
	// ReplayedRecords counts records re-earned as post-restore replay.
	ReplayedRecords uint64
	// RecoveryMs sums, per crash event, the time from onset to the revived
	// instances being caught up (recovery delay plus the slowest replay).
	RecoveryMs float64
}

// Injector executes a Plan against a running simulation.
type Injector struct {
	rt    *engine.Runtime
	plan  Plan
	rng   *simtime.RNG
	ck    *engine.StateCheckpointer
	stats Stats

	// disruptions is the monotonic count the controller's Health hook polls;
	// lastNote describes the latest disruption.
	disruptions int
	lastNote    string
	started     bool
}

// NewInjector builds an injector for the plan. A nil plan yields a nil
// injector — callers can wire it through unconditionally, and every method
// on a nil *Injector is a safe no-op.
func NewInjector(rt *engine.Runtime, plan *Plan, seed int64) *Injector {
	if plan == nil {
		return nil
	}
	p := *plan
	p.fillDefaults()
	return &Injector{rt: rt, plan: p, rng: simtime.NewRNG(seed, "faults")}
}

// Start begins checkpointing and schedules every fault. Call it after
// engine.Runtime.Start, and Stop at teardown (the checkpoint timer re-arms).
func (inj *Injector) Start() {
	if inj == nil || inj.started {
		return
	}
	inj.started = true
	inj.ck = inj.rt.StartStateCheckpoints(inj.plan.CheckpointEvery)
	prevFail := inj.rt.Cluster.OnTransferFail
	inj.rt.Cluster.OnTransferFail = func(from, to netsim.Endpoint, bytes int, err error) {
		inj.stats.FailedTransfers++
		if prevFail != nil {
			prevFail(from, to, bytes, err)
		}
	}
	if inj.plan.TransferRetries > 0 {
		inj.rt.Cluster.TransferRetry = cluster.RetryPolicy{
			Max:  inj.plan.TransferRetries,
			Base: inj.plan.RetryBase,
			Cap:  inj.plan.RetryCap,
		}
	}
	prevRetry := inj.rt.Cluster.OnTransferRetry
	inj.rt.Cluster.OnTransferRetry = func(from, to netsim.Endpoint, bytes int, err error, attempt int) {
		inj.stats.RetriedTransfers++
		if prevRetry != nil {
			prevRetry(from, to, bytes, err, attempt)
		}
	}
	for i := range inj.plan.Faults {
		f := inj.plan.Faults[i]
		at := f.At
		if f.Jitter > 0 {
			at = inj.rng.Jitter(at, f.Jitter)
		}
		inj.rt.Sched.After(at, func() { inj.fire(f) })
	}
}

// Stop cancels the checkpoint timer so the scheduler can drain.
func (inj *Injector) Stop() {
	if inj == nil || inj.ck == nil {
		return
	}
	inj.ck.Stop()
}

// Health implements the controller's disruption feed: a monotonic count and
// a note describing the latest disruption.
func (inj *Injector) Health() (int, string) {
	if inj == nil {
		return 0, ""
	}
	return inj.disruptions, inj.lastNote
}

// Stats returns a copy of the accumulated fault/recovery statistics.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}

func (inj *Injector) disrupt(note string) {
	inj.disruptions++
	inj.lastNote = note
	inj.stats.Events++
}

func (inj *Injector) fire(f Fault) {
	switch f.Kind {
	case Crash:
		inj.crash(f)
	case Straggle:
		inj.straggle(f)
	case Uplink:
		inj.uplink(f)
	}
}

func (inj *Injector) crash(f Fault) {
	c := inj.rt.Cluster
	if c.Node(f.Node) == nil {
		return
	}
	inj.disrupt("node " + f.Node + " crashed")
	inj.stats.Crashes++
	crashAt := inj.rt.Sched.Now()
	c.MarkDead(f.Node)
	// Victims: live instances placed on the node. Collected via EachInstance
	// so the order (and thus every recovery event) is deterministic.
	var victims []*engine.Instance
	lost := make(map[*engine.Instance][]int)
	inj.rt.EachInstance(func(in *engine.Instance) {
		if c.NodeOf(in.Endpoint()).Name != f.Node || in.Dead() {
			return
		}
		victims = append(victims, in)
		lost[in] = in.Fail()
		inj.stats.WipedGroups += len(lost[in])
	})
	if f.Restart > 0 {
		restart := f.Restart
		inj.rt.Sched.After(restart, func() { c.MarkAlive(f.Node) })
	}
	if inj.plan.RecoveryDelay < 0 {
		return
	}
	inj.rt.Sched.After(inj.plan.RecoveryDelay, func() { inj.recover(crashAt, victims, lost) })
}

// recover revives a crash's victims: re-place through the placement policy,
// restore lost key groups from the newest snapshot that covered them, and
// charge the progress lost since that snapshot as replay time.
func (inj *Injector) recover(crashAt simtime.Time, victims []*engine.Instance, lost map[*engine.Instance][]int) {
	c := inj.rt.Cluster
	var slowest simtime.Duration
	for _, in := range victims {
		c.PlaceInstance(in.Endpoint())
		op := in.Spec.Name
		for _, kg := range lost[in] {
			if inj.heldElsewhere(op, in, kg) {
				// The group found a new live home while the victim was down
				// (a superseding migration moved it); restoring a stale copy
				// here would fork its state.
				inj.stats.RelocatedGroups++
				continue
			}
			if g, ok := inj.ck.Lookup(op, in.Name(), kg); ok {
				in.Store().OwnGroup(kg)
				in.Store().InstallGroup(kg, g.Thaw())
				inj.stats.RecoveredGroups++
			} else {
				in.Store().OwnGroup(kg)
				inj.stats.LostGroups++
			}
		}
		var replay uint64
		if at, ok := inj.ck.ProcessedAt(in.Name()); ok && in.Processed > at {
			replay = in.Processed - at
		}
		inj.stats.ReplayedRecords += replay
		var cost simtime.Duration
		if speed := c.SpeedOf(in.Endpoint()); replay > 0 && speed > 0 {
			cost = simtime.Duration(float64(replay) * float64(in.Spec.CostPerRecord) / speed)
		}
		if cost > slowest {
			slowest = cost
		}
		in.Revive()
		if cost > 0 {
			in.ChargeBusy(cost)
		}
	}
	done := inj.rt.Sched.Now().Add(slowest)
	inj.stats.RecoveryMs += done.Sub(crashAt).Millis()
}

func (inj *Injector) heldElsewhere(op string, victim *engine.Instance, kg int) bool {
	for _, other := range inj.rt.Instances(op) {
		if other != victim && !other.Dead() && other.Store().HasGroup(kg) {
			return true
		}
	}
	return false
}

func (inj *Injector) straggle(f Fault) {
	nd := inj.rt.Cluster.Node(f.Node)
	if nd == nil || f.Factor <= 0 {
		return
	}
	inj.disrupt(fmt.Sprintf("node %s straggling ×%.2g", f.Node, f.Factor))
	orig := nd.Speed
	nd.Speed = orig * f.Factor
	if f.Heal > 0 {
		inj.rt.Sched.After(f.Heal, func() { nd.Speed = orig })
	}
}

func (inj *Injector) uplink(f Fault) {
	r := inj.rt.Cluster.Rack(f.Rack)
	if r == nil {
		return
	}
	origBW, origDown := r.UplinkBandwidth, r.Down
	if f.Bandwidth <= 0 {
		inj.disrupt("rack " + f.Rack + " partitioned")
		r.Down = true
	} else {
		inj.disrupt(fmt.Sprintf("rack %s uplink degraded to %.3g MB/s", f.Rack, f.Bandwidth/1e6))
		r.UplinkBandwidth = f.Bandwidth
	}
	if f.Heal > 0 {
		inj.rt.Sched.After(f.Heal, func() {
			r.UplinkBandwidth, r.Down = origBW, origDown
		})
	}
}

// ParseSpec parses the compact fault-spec grammar used by flags and
// scenarios. Entries are ';'-separated:
//
//	crash@12s:node=r1n0,restart=6s
//	straggle@15s:node=r0n1,factor=0.3,heal=10s
//	uplink@14s:rack=r0,bw=0,heal=8s
//	ckpt=2s          (plan knob: checkpoint cadence)
//	recovery=1s      (plan knob: crash recovery delay; "off" never revives)
//	retry=3          (plan knob: transient-transfer retry budget)
//	retrybase=250ms  (plan knob: first retry backoff)
//	retrycap=2s      (plan knob: backoff ceiling)
//
// Durations use Go syntax ("500ms", "12s"); bw is bytes/s ("0" partitions).
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if v, ok := strings.CutPrefix(entry, "ckpt="); ok {
			d, err := parseDur(v)
			if err != nil {
				return nil, fmt.Errorf("faults: ckpt: %w", err)
			}
			p.CheckpointEvery = d
			continue
		}
		if v, ok := strings.CutPrefix(entry, "recovery="); ok {
			if v == "off" {
				p.RecoveryDelay = -1
				continue
			}
			d, err := parseDur(v)
			if err != nil {
				return nil, fmt.Errorf("faults: recovery: %w", err)
			}
			p.RecoveryDelay = d
			continue
		}
		if v, ok := strings.CutPrefix(entry, "retry="); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: retry: want a non-negative count, got %q", v)
			}
			p.TransferRetries = n
			continue
		}
		if v, ok := strings.CutPrefix(entry, "retrybase="); ok {
			d, err := parseDur(v)
			if err != nil {
				return nil, fmt.Errorf("faults: retrybase: %w", err)
			}
			p.RetryBase = d
			continue
		}
		if v, ok := strings.CutPrefix(entry, "retrycap="); ok {
			d, err := parseDur(v)
			if err != nil {
				return nil, fmt.Errorf("faults: retrycap: %w", err)
			}
			p.RetryCap = d
			continue
		}
		f, err := parseFault(entry)
		if err != nil {
			return nil, err
		}
		p.Faults = append(p.Faults, f)
	}
	if p.TransferRetries == 0 && (p.RetryBase != 0 || p.RetryCap != 0) {
		return nil, fmt.Errorf("faults: retrybase and retrycap need retry > 0")
	}
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].At < p.Faults[j].At })
	return p, nil
}

func parseFault(entry string) (Fault, error) {
	head, args, _ := strings.Cut(entry, ":")
	kind, at, ok := strings.Cut(head, "@")
	if !ok {
		return Fault{}, fmt.Errorf("faults: %q: want kind@time[:k=v,...]", entry)
	}
	f := Fault{Kind: Kind(kind)}
	switch f.Kind {
	case Crash, Straggle, Uplink:
	default:
		return Fault{}, fmt.Errorf("faults: unknown kind %q (want crash, straggle, uplink)", kind)
	}
	d, err := parseDur(at)
	if err != nil {
		return Fault{}, fmt.Errorf("faults: %q: %w", entry, err)
	}
	f.At = d
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Fault{}, fmt.Errorf("faults: %q: want k=v, got %q", entry, kv)
			}
			if err := f.setArg(k, v); err != nil {
				return Fault{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
		}
	}
	if err := f.validate(); err != nil {
		return Fault{}, fmt.Errorf("faults: %q: %w", entry, err)
	}
	return f, nil
}

func (f *Fault) setArg(k, v string) error {
	if strings.TrimSpace(v) != v {
		// Spec could not render it back: entries are trimmed when parsed.
		return fmt.Errorf("%s=%q: surrounding whitespace", k, v)
	}
	switch k {
	case "node":
		f.Node = v
	case "rack":
		f.Rack = v
	case "restart":
		d, err := parseDur(v)
		if err != nil {
			return err
		}
		f.Restart = d
	case "heal":
		d, err := parseDur(v)
		if err != nil {
			return err
		}
		f.Heal = d
	case "factor":
		x, err := parseFloat(v)
		if err != nil {
			return err
		}
		f.Factor = x
	case "bw":
		x, err := parseFloat(v)
		if err != nil {
			return err
		}
		f.Bandwidth = x
	case "jitter":
		x, err := parseFloat(v)
		if err != nil {
			return err
		}
		if x < 0 {
			return fmt.Errorf("jitter must not be negative")
		}
		f.Jitter = x
	default:
		return fmt.Errorf("unknown arg %q", k)
	}
	return nil
}

func (f *Fault) validate() error {
	if f.Factor != 0 && f.Kind != Straggle {
		return fmt.Errorf("factor= applies to straggle only")
	}
	if f.Bandwidth != 0 && f.Kind != Uplink {
		return fmt.Errorf("bw= applies to uplink only")
	}
	switch f.Kind {
	case Crash:
		if f.Node == "" {
			return fmt.Errorf("crash needs node=")
		}
	case Straggle:
		if f.Node == "" {
			return fmt.Errorf("straggle needs node=")
		}
		if f.Factor <= 0 {
			return fmt.Errorf("straggle needs factor>0")
		}
	case Uplink:
		if f.Rack == "" {
			return fmt.Errorf("uplink needs rack=")
		}
	}
	return nil
}

func parseDur(s string) (simtime.Duration, error) {
	td, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if td < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return simtime.Duration(td / time.Microsecond), nil
}

// parseFloat reads a finite number: NaN and ±Inf are no rate or factor.
func parseFloat(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return x, nil
}

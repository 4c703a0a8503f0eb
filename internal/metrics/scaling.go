package metrics

import (
	"fmt"
	"sort"
	"sync"

	"drrs/internal/simtime"
)

// ScalingMetrics aggregates the three delay components the paper isolates
// (Section II-B): propagation delay Lp, suspension delay Ls, and
// dependency-related overhead Ld, plus bookkeeping used by the evaluation
// figures.
//
// Definitions (matching Fig 12 / Fig 13 captions):
//   - Cumulative propagation delay: sum over scaling signals of the interval
//     between signal injection and the first state migration it triggers.
//   - Average dependency overhead: mean over migrated state units of the
//     interval from their signal's injection to the unit's migration.
//   - Cumulative suspension time: total duration across instances in which
//     record processing was blocked waiting for state migration.
type ScalingMetrics struct {
	mu sync.Mutex

	// Per-signal (scaling operation or subscale) bookkeeping.
	injections map[string]simtime.Time
	firstMove  map[string]simtime.Time

	// Per-unit (key group) migration completion.
	unitSignal map[int]string
	unitDone   map[int]simtime.Time

	// Suspension intervals per instance.
	suspOpen  map[string]simtime.Time
	suspTotal simtime.Duration
	suspCurve *Series

	// Scaling lifecycle.
	ScaleStart simtime.Time
	ScaleEnd   simtime.Time
	started    bool
	ended      bool

	// Mechanism-specific counters (e.g. Meces fetch statistics).
	counters map[string]int64
}

// NewScalingMetrics returns an empty collector.
func NewScalingMetrics() *ScalingMetrics {
	return &ScalingMetrics{
		injections: make(map[string]simtime.Time),
		firstMove:  make(map[string]simtime.Time),
		unitSignal: make(map[int]string),
		unitDone:   make(map[int]simtime.Time),
		suspOpen:   make(map[string]simtime.Time),
		suspCurve:  NewSeries("cumulative_suspension_ms"),
		counters:   make(map[string]int64),
	}
}

// MarkScaleStart records the instant the scaling operation was requested.
func (m *ScalingMetrics) MarkScaleStart(at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.ScaleStart = at
		m.started = true
	}
}

// MarkScaleEnd records the instant all migration work finished.
func (m *ScalingMetrics) MarkScaleEnd(at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ScaleEnd = at
	m.ended = true
}

// Ended reports whether MarkScaleEnd has been called.
func (m *ScalingMetrics) Ended() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ended
}

// MigrationDuration reports the span from scale start to scale end, or zero
// if the scaling never completed.
func (m *ScalingMetrics) MigrationDuration() simtime.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started || !m.ended {
		return 0
	}
	return m.ScaleEnd.Sub(m.ScaleStart)
}

// SignalInjected records the injection of a scaling signal (for DRRS, one per
// subscale; for Megaphone, one per reconfiguration batch; for OTFS/Meces, a
// single one).
func (m *ScalingMetrics) SignalInjected(signal string, at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.injections[signal]; !ok {
		m.injections[signal] = at
	}
}

// UnitAssigned binds a migrating state unit (key group) to the signal that
// governs it.
func (m *ScalingMetrics) UnitAssigned(unit int, signal string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unitSignal[unit] = signal
}

// FirstMigration records the first state movement triggered by a signal.
func (m *ScalingMetrics) FirstMigration(signal string, at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.firstMove[signal]; !ok {
		m.firstMove[signal] = at
	}
}

// UnitMigrated records completion of a state unit's migration.
func (m *ScalingMetrics) UnitMigrated(unit int, at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.unitDone[unit]; !ok {
		m.unitDone[unit] = at
	}
}

// UnitDoneTimes returns a copy of the per-unit migration completion times.
func (m *ScalingMetrics) UnitDoneTimes() map[int]simtime.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]simtime.Time, len(m.unitDone))
	for u, t := range m.unitDone {
		out[u] = t
	}
	return out
}

// UnitsMigrated reports how many units have completed migration.
func (m *ScalingMetrics) UnitsMigrated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.unitDone)
}

// CumulativePropagationDelay implements Fig 12a: the sum over signals of
// (first migration - injection).
func (m *ScalingMetrics) CumulativePropagationDelay() simtime.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum simtime.Duration
	for sig, inj := range m.injections {
		if first, ok := m.firstMove[sig]; ok {
			sum += first.Sub(inj)
		}
	}
	return sum
}

// AvgDependencyOverhead implements Fig 12b: the mean over migrated units of
// (migration completion - governing signal injection).
func (m *ScalingMetrics) AvgDependencyOverhead() simtime.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum simtime.Duration
	var n int
	for unit, done := range m.unitDone {
		sig, ok := m.unitSignal[unit]
		if !ok {
			continue
		}
		inj, ok := m.injections[sig]
		if !ok {
			continue
		}
		sum += done.Sub(inj)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / simtime.Duration(n)
}

// SuspendBegin opens a suspension interval for an instance. Reentrant opens
// are ignored.
func (m *ScalingMetrics) SuspendBegin(instance string, at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, open := m.suspOpen[instance]; !open {
		m.suspOpen[instance] = at
	}
}

// SuspendEnd closes a suspension interval for an instance and accumulates it
// into the cumulative suspension curve (Fig 13).
func (m *ScalingMetrics) SuspendEnd(instance string, at simtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start, open := m.suspOpen[instance]
	if !open {
		return
	}
	delete(m.suspOpen, instance)
	m.suspTotal += at.Sub(start)
	m.suspCurve.Append(at, m.suspTotal.Millis())
}

// CloseAllSuspensions force-closes any open intervals (called at experiment
// end so in-progress suspensions count). Intervals close in instance-name
// order: all closures share the same timestamp, and the cumulative curve
// appends one intermediate value per closure, so map-iteration order would
// make same-seed runs emit different series. It returns the closed instance
// names (sorted) so a caller swapping in a fresh collector can re-open the
// still-suspended instances there.
func (m *ScalingMetrics) CloseAllSuspensions(at simtime.Time) []string {
	m.mu.Lock()
	names := make([]string, 0, len(m.suspOpen))
	for n := range m.suspOpen {
		names = append(names, n)
	}
	m.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		m.SuspendEnd(n, at)
	}
	return names
}

// CumulativeSuspension reports total suspension time so far.
func (m *ScalingMetrics) CumulativeSuspension() simtime.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspTotal
}

// SuspensionCurve returns the cumulative suspension time series in ms.
func (m *ScalingMetrics) SuspensionCurve() *Series { return m.suspCurve }

// AddCounter increments a mechanism-specific counter (e.g. "meces_fetches").
func (m *ScalingMetrics) AddCounter(name string, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[name] += delta
}

// Counter reads a mechanism-specific counter.
func (m *ScalingMetrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Summary renders a one-line digest for logs and run reports.
func (m *ScalingMetrics) Summary() string {
	return fmt.Sprintf("scale=%v prop=%v dep=%v susp=%v units=%d",
		m.MigrationDuration(), m.CumulativePropagationDelay(),
		m.AvgDependencyOverhead(), m.CumulativeSuspension(), m.UnitsMigrated())
}

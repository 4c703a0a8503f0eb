// Package netsim models the network plane of the simulated stream processing
// engine: typed messages and point-to-point edges with sender-side outboxes
// (Flink's output caches / result subpartitions) and receiver-side inboxes
// (input buffers).
//
// The DRRS mechanisms manipulate both sides of an edge: trigger barriers are
// priority messages in outbox and inbox; confirm barriers are priority only
// in the outbox; redirection extracts key-group records from the outbox; and
// Record Scheduling inspects the inbox at positional depth.
package netsim

import (
	"fmt"

	"drrs/internal/simtime"
)

// Kind discriminates message types on an edge.
type Kind int

// Message kinds.
const (
	KindRecord Kind = iota
	KindWatermark
	KindCheckpointBarrier
	KindTriggerBarrier
	KindConfirmBarrier
	KindRerouted
	KindScaleBarrier // coupled scaling signal used by OTFS/Megaphone
)

func (k Kind) String() string {
	switch k {
	case KindRecord:
		return "record"
	case KindWatermark:
		return "watermark"
	case KindCheckpointBarrier:
		return "ckpt-barrier"
	case KindTriggerBarrier:
		return "trigger-barrier"
	case KindConfirmBarrier:
		return "confirm-barrier"
	case KindRerouted:
		return "rerouted"
	case KindScaleBarrier:
		return "scale-barrier"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is anything that travels on an edge.
type Message interface {
	MsgKind() Kind
	SizeBytes() int
}

// Record is a data record (or a latency marker travelling as one).
type Record struct {
	Key       uint64
	KeyGroup  int
	EventTime simtime.Time
	// IngestTime is when the record entered the system (Kafka ingest); end-to-
	// end latency is measured against it, so source backlog counts, as in the
	// paper.
	IngestTime simtime.Time
	Seq        uint64
	Size       int
	// Value is the record's payload fast lane: every hot-path operator
	// (keyed reduce, windows, sinks, map transforms) reads and writes this
	// unboxed float64, so the steady-state record path allocates nothing.
	Value float64
	// Aux is the escape hatch for the rare structured payloads that do not
	// reduce to one float64 (e.g. join-side tags). Storing a value that is
	// not a pointer boxes it, so a producer that tags many records with the
	// same value boxes it once and shares the box; consumers only read it.
	// While the record sits in a RecordPool, Aux links it to the next pooled
	// record.
	Aux any
	// Marker marks a latency marker; markers bypass windowing operators but
	// otherwise queue and process like records.
	Marker bool
}

// MsgKind implements Message.
func (*Record) MsgKind() Kind { return KindRecord }

// SizeBytes implements Message.
func (r *Record) SizeBytes() int {
	if r.Size <= 0 {
		return 64
	}
	return r.Size
}

// Watermark carries event-time progress. A sender hands one watermark to
// every output edge at once; a watermark from a WatermarkPool counts the
// receivers yet to read it and goes back to the pool after the last.
type Watermark struct {
	WM simtime.Time
	// holds counts the receivers that have not yet read WM; it is 0 for a
	// watermark built outside a pool, which is never recycled.
	holds int
	// next links the pool's free list while the watermark sits in it.
	next *Watermark
}

// MsgKind implements Message.
func (*Watermark) MsgKind() Kind { return KindWatermark }

// SizeBytes implements Message.
func (*Watermark) SizeBytes() int { return 16 }

// CheckpointBarrier is Flink's aligned checkpoint barrier.
type CheckpointBarrier struct {
	ID int64
	// Integrated carries DRRS signals merged into this barrier per the
	// paper's Fig 9 fault-tolerance integration.
	Integrated []Message
}

// MsgKind implements Message.
func (*CheckpointBarrier) MsgKind() Kind { return KindCheckpointBarrier }

// SizeBytes implements Message.
func (*CheckpointBarrier) SizeBytes() int { return 16 }

// TriggerBarrier is DRRS's migration trigger: a priority message that
// bypasses in-flight data in both output and input caches.
type TriggerBarrier struct {
	ScaleID  int64
	Subscale int
	FromOp   string
	FromIdx  int
}

// MsgKind implements Message.
func (*TriggerBarrier) MsgKind() Kind { return KindTriggerBarrier }

// SizeBytes implements Message.
func (*TriggerBarrier) SizeBytes() int { return 24 }

// ConfirmBarrier is DRRS's routing confirmation: priority only in the output
// cache, ordinary in transit and on arrival, re-routed by the scaling
// instance to the migration target.
type ConfirmBarrier struct {
	ScaleID  int64
	Subscale int
	FromOp   string
	FromIdx  int
}

// MsgKind implements Message.
func (*ConfirmBarrier) MsgKind() Kind { return KindConfirmBarrier }

// SizeBytes implements Message.
func (*ConfirmBarrier) SizeBytes() int { return 24 }

// ScaleBarrier is the coupled scaling signal used by the generalized OTFS
// framework and Megaphone: routing confirmation and migration trigger in one
// message, aligned like a checkpoint barrier. Nothing writes a barrier once
// it is built, so one barrier serves a whole round: every hop forwards the
// one it received.
type ScaleBarrier struct {
	ScaleID int64
	Round   int // Megaphone reconfiguration round (0 for single-shot OTFS)
}

// MsgKind implements Message.
func (*ScaleBarrier) MsgKind() Kind { return KindScaleBarrier }

// SizeBytes implements Message.
func (*ScaleBarrier) SizeBytes() int { return 24 }

// Rerouted wraps a record (or confirm barrier) that the scaling-out instance
// forwards to the scaling-in instance because the associated state already
// migrated. Rerouted messages are handled as special events and are not
// affected by processing suspension.
type Rerouted struct {
	Inner    Message
	Subscale int
}

// MsgKind implements Message.
func (*Rerouted) MsgKind() Kind { return KindRerouted }

// SizeBytes implements Message.
func (r *Rerouted) SizeBytes() int { return r.Inner.SizeBytes() + 8 }

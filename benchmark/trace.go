package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call the harness made into the program, recorded from outside
// it. Parent is an index into the tracer's span list (-1 for a root).
type span struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Cell    string  `json:"cell,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	// SelfUs is the span's duration minus what its children cover.
	SelfUs float64 `json:"self_us"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is
// tracing switched off: begin and end do nothing, so timed passes share the
// traced pass's code path without its cost.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: wallNow()} }

// spanRef closes the span begin opened.
type spanRef struct {
	tr  *tracer
	idx int
}

func (tr *tracer) begin(name, layer, cellID string) spanRef {
	if tr == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{
		Name: name, Layer: layer, Cell: cellID, Parent: parent,
		StartUs: micros(wallNow().Sub(tr.origin)), EndUs: -1,
	})
	idx := len(tr.spans) - 1
	tr.open = append(tr.open, idx)
	return spanRef{tr: tr, idx: idx}
}

// end closes the span and any descendant a panic left open, so spans always
// nest.
func (r spanRef) end() {
	tr := r.tr
	if tr == nil {
		return
	}
	now := micros(wallNow().Sub(tr.origin))
	for len(tr.open) > 0 {
		top := tr.open[len(tr.open)-1]
		tr.open = tr.open[:len(tr.open)-1]
		if tr.spans[top].EndUs < 0 {
			tr.spans[top].EndUs = now
		}
		if top == r.idx {
			return
		}
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// finish computes self times (span minus children) and returns the spans.
func (tr *tracer) finish() []span {
	if tr == nil {
		return nil
	}
	for i := range tr.spans {
		tr.spans[i].SelfUs = tr.spans[i].EndUs - tr.spans[i].StartUs
	}
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			tr.spans[p].SelfUs -= tr.spans[i].EndUs - tr.spans[i].StartUs
		}
	}
	return tr.spans
}

// selfByLayer sums span self time per layer label, in seconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i := range spans {
		out[spans[i].Layer] += spans[i].SelfUs / 1e6
	}
	return out
}

// traceFile is trace.json: the spans plus a per-layer self-time summary.
type traceFile struct {
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	SelfSeconds []layerValue `json:"self_seconds_by_layer"`
	Spans       []span       `json:"spans"`
}

type layerValue struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
}

func sortedLayerValues(m map[string]float64) []layerValue {
	out := make([]layerValue, 0, len(m))
	for k, v := range m {
		out = append(out, layerValue{Layer: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

func writeTraceFile(path, workloadName string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{
		Workload:    workloadName,
		Seed:        seed,
		SelfSeconds: sortedLayerValues(selfByLayer(spans)),
		Spans:       spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

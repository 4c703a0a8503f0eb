package scaletest

import (
	"strings"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// mutatingSink applies mutate to the n-th record reaching the sink and drops
// that record when mutate returns false.
type mutatingSink struct {
	dataflow.Logic
	n      int
	mutate func(r *netsim.Record) bool
}

func (m *mutatingSink) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	m.n--
	if m.n == 0 && !m.mutate(r) {
		return
	}
	m.Logic.OnRecord(ctx, r)
}

// runMutant runs wl without scaling, as Execute does, with mutate applied to
// the n-th sink record ahead of the sink's own logic and its key sums.
func runMutant(wl Workload, n int, mutate func(r *netsim.Record) bool) Result {
	wl.EmitUpdates = true
	g, sink := wl.Build()
	byKey := SumByKey(g, "sink")
	spec := g.Operator("sink")
	inner := spec.NewLogic
	spec.NewLogic = func() dataflow.Logic { return &mutatingSink{inner(), n, mutate} }
	s := simtime.NewScheduler()
	rt := engine.New(s, g, nil, engine.Config{Seed: wl.Seed})
	rt.Start()
	s.RunUntil(simtime.Time(wl.Duration))
	rt.StopMarkers()
	s.Run()
	return Result{RT: rt, Sink: sink, ByKey: byKey}
}

// TestCheckExactlyOnceCatchesSinkMutants: the per-key check is live. A sink
// that misses one record, or sees one value changed, fails against the
// unmutated baseline, and an empty baseline fails on its own.
func TestCheckExactlyOnceCatchesSinkMutants(t *testing.T) {
	wl := DefaultWorkload(7)
	base := Run{Workload: wl}.Execute()
	if msg := CheckExactlyOnce(base, runMutant(wl, 0, nil)); msg != "" {
		t.Fatalf("an unmutated rerun fails the check: %s", msg)
	}
	mid := base.Sink.Records / 2
	for _, c := range []struct {
		name, want string
		mutate     func(r *netsim.Record) bool
	}{
		{"dropped", "record count", func(*netsim.Record) bool { return false }},
		{"changed", "aggregate", func(r *netsim.Record) bool { r.Value++; return true }},
	} {
		msg := CheckExactlyOnce(base, runMutant(wl, mid, c.mutate))
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s record %d: check reported %q, want a %q mismatch", c.name, mid, msg, c.want)
		}
	}
	empty := Result{Sink: engine.NewCollectSink()}
	if msg := CheckExactlyOnce(empty, empty); msg == "" {
		t.Error("two empty sinks pass the check")
	}
}

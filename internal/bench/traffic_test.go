package bench

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"drrs/internal/scaling"
	"drrs/internal/workload"
)

func drrsFactory() scaling.Mechanism { return Mechanisms("drrs") }

// TestRecordReplayDigestIdentity is the acceptance check behind
// drrs-bench -record/-replay: a recorded run, its unrecorded twin, and the
// replay of its trace all produce the same OutcomeDigest — recording is
// transparent and replay is bit-exact.
func TestRecordReplayDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full flash-crowd simulations")
	}
	t.Parallel()
	plain := OutcomeDigest(sharedRun(t, "flash-crowd", 11, "drrs"))

	out, trace := ScenarioByName("flash-crowd", 11).RecordWith(drrsFactory)
	if got := OutcomeDigest(out); got != plain {
		t.Fatalf("recording perturbed the run: digest 0x%016x, plain 0x%016x", got, plain)
	}
	if trace.Events() == 0 {
		t.Fatal("recorded trace is empty")
	}

	// Round-trip through the file codec like the CLI does.
	path := filepath.Join(t.TempDir(), "fc.trace")
	if err := trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := ScenarioByName("flash-crowd", 11)
	sc.Traffic = workload.Replay(back)
	if got := OutcomeDigest(sc.RunWith(drrsFactory)); got != plain {
		t.Fatalf("replay diverged: digest 0x%016x, plain 0x%016x", got, plain)
	}
}

// TestReplayOverrideRejectsCustomGenerator: a replay cannot feed scenarios
// whose traffic is a custom generator closure. Apply must say so as an error
// — not run the scenario's own traffic under a replay label, and not panic
// from a worker goroutine mid-figure.
func TestReplayOverrideRejectsCustomGenerator(t *testing.T) {
	tr := workload.Synthesize(workload.Live(workload.Spec{
		Cohorts:  []workload.Cohort{workload.DefaultCohort()},
		Duration: 1000,
	}), 1)
	ov := Overrides{Replay: tr}
	_, err := ov.Apply(ScenarioByName("twitch", 1))
	if err == nil || !strings.Contains(err.Error(), "cannot replay a trace") {
		t.Fatalf("custom-generator scenario accepted a replay override: %v", err)
	}
	if _, err := (Harness{Overrides: ov}).Fig2([]int64{1}); err == nil {
		t.Fatal("Fig2 (twitch) ran under a replay override")
	}
	sc, err := ov.Apply(ScenarioByName("flash-crowd", 1))
	if err != nil {
		t.Fatalf("custom-job scenario refused a replay: %v", err)
	}
	if got, want := sc.TrafficString(), workload.Replay(tr).Describe(); got != want {
		t.Fatalf("replayed scenario describes its traffic as %q, want %q", got, want)
	}
}

// TestRecordWithRejectsCustomGenerator: only custom-job scenarios have a
// replayable arrival stream to record.
func TestRecordWithRejectsCustomGenerator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RecordWith accepted a custom-generator scenario")
		}
	}()
	ScenarioByName("twitch", 1).RecordWith(drrsFactory)
}

// TestDefinitionsTrafficSummary: every registered scenario renders a traffic
// one-liner for drrs-bench -list, either declared or derived.
func TestDefinitionsTrafficSummary(t *testing.T) {
	for _, def := range Definitions() {
		if def.New(1).TrafficString() == "" {
			t.Errorf("scenario %s has no traffic summary", def.Name)
		}
	}
}

// TestMillionUsersSpecShape pins the scenario's structural promises: ≥1000
// cohorts, all four arrival processes present, over a million simulated
// clients, and a deterministic spec for a fixed seed.
func TestMillionUsersSpecShape(t *testing.T) {
	spec := MillionUsersSpec(1)
	if len(spec.Cohorts) < 1000 {
		t.Fatalf("million-users has %d cohorts, want ≥1000", len(spec.Cohorts))
	}
	clients := 0
	var kinds [4]bool
	for _, c := range spec.Cohorts {
		clients += c.Clients
		kinds[c.Arrival] = true
	}
	if clients < 1_000_000 {
		t.Fatalf("million-users simulates %d clients, want ≥1e6", clients)
	}
	for a, seen := range kinds {
		if !seen {
			t.Errorf("million-users never uses arrival process %v", workload.Arrival(a))
		}
	}
	a, b := MillionUsersSpec(7), MillionUsersSpec(7)
	if len(a.Cohorts) != len(b.Cohorts) || a.Cohorts[13].Clients != b.Cohorts[13].Clients {
		t.Fatal("MillionUsersSpec is not deterministic in the seed")
	}
}

// TestMillionUsersStreamChecksum pins the 1200-cohort generator byte for
// byte: the footer checksum Trace.Write appends to the streams two source
// instances consume, captured from the one-draw-per-arrival generator that
// cohort batching replaced and re-recorded once when the streams moved to
// PCG (see goldenDigests).
func TestMillionUsersStreamChecksum(t *testing.T) {
	tr := workload.Synthesize(workload.Live(MillionUsersSpec(1)), 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = 0x880d80d8795bea39
	if got := binary.LittleEndian.Uint64(buf.Bytes()[buf.Len()-8:]); got != want {
		t.Fatalf("million-users stream checksum 0x%016x (%d events), pinned 0x%016x", got, tr.Events(), uint64(want))
	}
}

// BenchmarkLiveGen times the Live generator on its own: both source streams
// of the 1200-cohort million-users spec drained to the 45 s horizon, no
// engine. benchgate pins its allocs/op and B/op, which are exact; ns/op is
// ungated (-1 in bench_baseline.json).
func BenchmarkLiveGen(b *testing.B) {
	b.ReportAllocs()
	live := workload.Live(MillionUsersSpec(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := 0
		for inst := 0; inst < 2; inst++ {
			st := live.Stream(inst, 2, 0)
			var ev workload.Event
			for st.Next(&ev) {
				arrivals++
			}
		}
		if arrivals < 200_000 {
			b.Fatalf("generated only %d arrivals", arrivals)
		}
	}
}

package bench

import (
	"testing"

	"drrs/internal/metrics"
	"drrs/internal/simtime"
)

func TestInstanceSeconds(t *testing.T) {
	sec := func(s int64) simtime.Time { return simtime.Time(s) * simtime.Time(simtime.Second) }
	launched := func(target int, at, done simtime.Time) WaveOutcome {
		return WaveOutcome{
			Wave:    Wave{NewParallelism: target},
			ScaleAt: at, Done: true, DoneAt: done,
			Scale: metrics.NewScalingMetrics(),
		}
	}
	cases := []struct {
		name  string
		p0    int
		waves []WaveOutcome
		end   simtime.Time
		want  float64
	}{
		{"no waves", 8, nil, sec(10), 80},
		{
			// 4×10 + max(4,8)×5 + 8×5 = 40+40+40
			"scale-out", 4,
			[]WaveOutcome{launched(8, sec(10), sec(15))},
			sec(20), 120,
		},
		{
			// Scale-in keeps the old instances until migration drains:
			// 8×10 + max(8,4)×5 + 4×5 = 80+40+20
			"scale-in", 8,
			[]WaveOutcome{launched(4, sec(10), sec(15))},
			sec(20), 140,
		},
		{
			// An unfinished wave stays at its in-flight level to the end:
			// 4×10 + 8×10
			"in flight at horizon", 4,
			[]WaveOutcome{{
				Wave: Wave{NewParallelism: 8}, ScaleAt: sec(10),
				Scale: metrics.NewScalingMetrics(),
			}},
			sec(20), 120,
		},
		{
			// A never-launched wave (Scale nil) contributes nothing.
			"unlaunched wave", 4,
			[]WaveOutcome{{Wave: Wave{NewParallelism: 8}}},
			sec(10), 40,
		},
		{
			// Two waves: 4×10 + 8×5 + 8×5 + max(8,6)... scale-in 8→6:
			// 4×10 + max(4,8)×5 + 8×5 + max(8,6)×5 + 6×5 = 40+40+40+40+30
			"out then in", 4,
			[]WaveOutcome{
				launched(8, sec(10), sec(15)),
				launched(6, sec(20), sec(25)),
			},
			sec(30), 190,
		},
	}
	for _, c := range cases {
		if got := instanceSeconds(c.p0, c.waves, c.end); got != c.want {
			t.Errorf("%s: instanceSeconds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestInstanceSecondsInRun pins the end-to-end accounting on a real scripted
// run: a scenario that never scales integrates exactly p0 × runtime, and a
// scaling run strictly more.
func TestInstanceSecondsInRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulated scenarios")
	}
	t.Parallel()
	noScale := sharedRun(t, "twitch", 7, "no-scale")
	if noScale.InstanceSeconds <= 0 {
		t.Fatalf("no-scale InstanceSeconds = %v, want > 0", noScale.InstanceSeconds)
	}
	scaled := sharedRun(t, "twitch", 7, "drrs")
	if scaled.InstanceSeconds <= noScale.InstanceSeconds {
		t.Errorf("scale-out run InstanceSeconds %v not above the unscaled %v",
			scaled.InstanceSeconds, noScale.InstanceSeconds)
	}
}

package stopre

import (
	"testing"

	"drrs/internal/scaletest"
	"drrs/internal/simtime"
)

func TestExactlyOnce(t *testing.T) {
	base := scaletest.Run{Workload: scaletest.DefaultWorkload(61)}.Execute()
	scaled := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(61),
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}.Execute()
	if !scaled.Done {
		t.Fatal("restart never completed")
	}
	if msg := scaletest.CheckExactlyOnce(base, scaled); msg != "" {
		t.Fatal(msg)
	}
	if msg := scaletest.CheckPlacement(scaled); msg != "" {
		t.Fatal(msg)
	}
	if msg := scaletest.CheckParticipation(scaled); msg != "" {
		t.Fatal(msg)
	}
}

func TestDowntimeVisibleInLatency(t *testing.T) {
	// Stop-restart's defining cost: a visible latency spike spanning the
	// halt. With a deliberately long redeploy the peak must dwarf the
	// steady-state latency.
	wl := scaletest.DefaultWorkload(62)
	wl.Duration = simtime.Sec(4)
	scaled := scaletest.Run{
		Workload:       wl,
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		SetupDelay:     simtime.Ms(300),
	}.Execute()
	if !scaled.Done {
		t.Fatal("restart never completed")
	}
	lat := scaled.RT.Latency
	pre := lat.AvgIn(0, simtime.Time(simtime.Sec(1)))
	peak := lat.PeakIn(simtime.Time(simtime.Sec(1)), simtime.Time(simtime.Sec(4)))
	if peak < 10*pre {
		t.Fatalf("peak %vms vs pre %vms: downtime did not register", peak, pre)
	}
	if peak < 300 {
		t.Fatalf("peak %vms below the 300ms setup delay — markers did not observe the halt", peak)
	}
}

func TestThroughputDipsToZeroThenRecovers(t *testing.T) {
	// A halt longer than two 1 s throughput buckets leaves at least one
	// bucket empty.
	wl := scaletest.DefaultWorkload(63)
	wl.Duration = simtime.Sec(6)
	scaled := scaletest.Run{
		Workload:       wl,
		Mechanism:      &Mechanism{},
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
		SetupDelay:     simtime.Sec(2.5),
	}.Execute()
	s := scaled.RT.Throughput.Series()
	var sawZero, recovered bool
	for _, p := range s.Points() {
		at := p.At
		if at >= simtime.Time(simtime.Sec(1)) && p.V == 0 {
			sawZero = true
		}
		if sawZero && p.V > 0 {
			recovered = true
		}
	}
	if !sawZero {
		t.Fatal("throughput never hit zero during the halt")
	}
	if !recovered {
		t.Fatal("throughput never recovered after restart")
	}
}

func TestName(t *testing.T) {
	if (&Mechanism{}).Name() != "stop-restart" {
		t.Fatal("name")
	}
}

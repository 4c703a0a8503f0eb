package core

import (
	"testing"

	"drrs/internal/scaletest"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
)

// variants builds Fig 14's ablation variants by name.
var variants = map[string]func() scaling.Mechanism{
	"drrs":     func() scaling.Mechanism { return New(FullDRRS()) },
	"dr":       func() scaling.Mechanism { return New(Options{}) },
	"schedule": func() scaling.Mechanism { return ScheduleOnly() },
	"subscale": func() scaling.Mechanism { return SubscaleOnly() },
}

func execDRRS(seed int64, mech scaling.Mechanism, tune func(*scaletest.Run)) scaletest.Result {
	r := scaletest.Run{
		Workload:       scaletest.DefaultWorkload(seed),
		Mechanism:      mech,
		ScaleAt:        simtime.Sec(1),
		NewParallelism: 6,
	}
	if tune != nil {
		tune(&r)
	}
	return r.Execute()
}

func TestVariantsExactlyOnce(t *testing.T) {
	for _, v := range []string{"drrs", "dr", "schedule", "subscale"} {
		v := v
		t.Run(v, func(t *testing.T) {
			base := scaletest.Run{Workload: scaletest.DefaultWorkload(71)}.Execute()
			scaled := execDRRS(71, variants[v](), nil)
			if !scaled.Done {
				t.Fatal("scaling never completed")
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
		})
	}
}

func TestVariantsExactlyOnceUnderSlowMigration(t *testing.T) {
	// Slow migration stretches every protocol window (Ep re-routing, epoch
	// switching, suspension) — the regime where ordering bugs surface.
	for _, v := range []string{"drrs", "dr"} {
		v := v
		t.Run(v, func(t *testing.T) {
			wl := scaletest.DefaultWorkload(72)
			wl.RatePerSec = 6000
			base := scaletest.Run{Workload: wl}.Execute()
			scaled := execDRRS(72, variants[v](), func(r *scaletest.Run) {
				r.Workload = wl
				r.Cluster = scaletest.SlowMigrationCluster(2 << 20)
			})
			if !scaled.Done {
				t.Fatal("scaling never completed")
			}
			if msg := scaletest.CheckExactlyOnce(base, scaled); msg != "" {
				t.Fatal(msg)
			}
			if msg := scaletest.CheckPlacement(scaled); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

func TestSubscaleDivisionEmitsManySignals(t *testing.T) {
	scaled := execDRRS(73, New(FullDRRS()), nil)
	// 4→6 over 32 groups: multiple (src,dst) pairs, chunked ≤8 per subscale;
	// every subscale injects its own signal and first-migration marker.
	prop := scaled.RT.Scale.CumulativePropagationDelay()
	if prop <= 0 {
		t.Fatal("no propagation recorded")
	}
	m := scaled.Mech.(*Mechanism)
	if len(m.subs) < 2 {
		t.Fatalf("expected multiple subscales, got %d", len(m.subs))
	}
	for _, s := range m.subs {
		if !s.completed {
			t.Fatalf("subscale %d never completed", s.id)
		}
		if len(s.srcs) != 1 || len(s.dsts) != 1 {
			t.Fatalf("subscale %d spans %d srcs, %d dsts; divider should chunk per pair", s.id, len(s.srcs), len(s.dsts))
		}
	}
}

func TestSingleSubscaleWithoutDivision(t *testing.T) {
	scaled := execDRRS(74, New(Options{}), nil)
	m := scaled.Mech.(*Mechanism)
	if len(m.subs) != 1 {
		t.Fatalf("DR-only should run one subscale, got %d", len(m.subs))
	}
}

func TestTriggerBypassBeatsCoupledPropagation(t *testing.T) {
	// The trigger barrier's priority path should start migration far sooner
	// than a coupled, alignment-synchronized barrier under load: make the
	// pipeline busy so in-band barriers queue behind data.
	wl := scaletest.DefaultWorkload(75)
	wl.RatePerSec = 9000
	wl.CostPerRecord = 200 * simtime.Microsecond
	drrs := scaletest.Run{
		Workload: wl, Mechanism: New(Options{}),
		ScaleAt: simtime.Sec(1), NewParallelism: 6,
	}.Execute()
	coupled := scaletest.Run{
		Workload: wl, Mechanism: scaling.OTFS(true),
		ScaleAt: simtime.Sec(1), NewParallelism: 6,
	}.Execute()
	if !drrs.Done || !coupled.Done {
		t.Fatal("runs did not complete")
	}
	dp := drrs.RT.Scale.CumulativePropagationDelay()
	cp := coupled.RT.Scale.CumulativePropagationDelay()
	if dp >= cp {
		t.Fatalf("DRRS propagation %v should beat coupled %v under load", dp, cp)
	}
}

func TestSchedulingReducesSuspension(t *testing.T) {
	// Record Scheduling's whole purpose: under slow migration, the full
	// system suspends far less than the DR-only variant on the same seed.
	mk := func(opt Options) simtime.Duration {
		wl := scaletest.DefaultWorkload(76)
		wl.RatePerSec = 6000
		res := scaletest.Run{
			Workload: wl, Mechanism: New(opt),
			ScaleAt: simtime.Sec(1), NewParallelism: 6,
			Cluster: scaletest.SlowMigrationCluster(1 << 20),
		}.Execute()
		if !res.Done {
			t.Fatal("run did not complete")
		}
		return res.RT.Scale.CumulativeSuspension()
	}
	full := mk(FullDRRS())
	drOnly := mk(Options{})
	if full >= drOnly {
		t.Fatalf("full DRRS suspension %v should beat DR-only %v", full, drOnly)
	}
}

func TestNodeConcurrencyRespected(t *testing.T) {
	// With NodeConcurrency=1 on a single node, subscales must serialize.
	opt := FullDRRS()
	opt.NodeConcurrency = 1
	opt.SubscaleKGs = 4
	scaled := execDRRS(77, New(opt), func(r *scaletest.Run) {
		r.Cluster = scaletest.SlowMigrationCluster(16 << 20)
	})
	if !scaled.Done {
		t.Fatal("never completed")
	}
	m := scaled.Mech.(*Mechanism)
	if len(m.subs) < 3 {
		t.Fatalf("want several subscales, got %d", len(m.subs))
	}
	if m.MaxActive > 1 {
		t.Fatalf("observed %d concurrent subscales with NodeConcurrency=1", m.MaxActive)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]string{
		"drrs": "drrs", "dr": "drrs-dr", "schedule": "drrs-schedule", "subscale": "drrs-subscale",
	}
	for v, want := range cases {
		if got := variants[v]().Name(); got != want {
			t.Fatalf("variant %s name %s", v, got)
		}
	}
}

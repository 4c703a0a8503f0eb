package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"drrs/internal/bench"
	"drrs/internal/workload"
)

// TestMain lets the test binary stand in for drrs-bench: re-executed with
// DRRS_BENCH_AS_CLI=1 it runs main() on its arguments, so usage errors are
// checked at the process boundary (exit code, stderr) without a go build.
func TestMain(m *testing.M) {
	if os.Getenv("DRRS_BENCH_AS_CLI") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cli runs drrs-bench with args and returns its exit code and stderr.
func cli(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DRRS_BENCH_AS_CLI=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUsageErrorsExitTwoWithOneLine: flag combinations that cannot mean what
// their label says are usage errors — exit 2 and one line on stderr, never a
// run under a different configuration and never a goroutine stack trace.
func TestUsageErrorsExitTwoWithOneLine(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.trace")
	if err := workload.Synthesize(workload.Live(workload.Spec{
		Cohorts:  []workload.Cohort{workload.DefaultCohort()},
		Duration: 1000,
	}), 1).WriteFile(trace); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		// The search generates its own plans; "-faults off" used to replace
		// every one of them with none and report "no oracle violations".
		"chaos+faults": {[]string{"-chaos", "1", "-faults", "off"}, "-chaos generates its own fault plans"},
		// fig2 runs twitch, a custom generator: this used to panic inside a
		// worker goroutine.
		"replay onto twitch": {[]string{"-experiment", "fig2", "-seeds", "1", "-replay", trace}, "cannot replay a trace"},
		"unknown mechanism":  {[]string{"-experiment", "multiwave", "-mechanisms", "bogus"}, `unknown mechanism "bogus"`},
		"unknown topology":   {[]string{"-experiment", "fig2", "-topology", "bogus"}, `unknown topology "bogus"`},
		// Named scenarios resolve once, before any mode runs; fig10 used to
		// die with a goroutine dump here.
		"fig10 unknown workload": {[]string{"-experiment", "fig10", "-workload", "bogus", "-seeds", "1"}, `unknown workload "bogus"`},
		"chaos unknown workload": {[]string{"-chaos", "1", "-workload", "bogus"}, `unknown workload "bogus"`},
		// -experiment all runs a fixed figure set; -workload used to be
		// silently ignored for a ~35 s run.
		"all with workload": {[]string{"-workload", "twitch"}, "-experiment all runs the fixed figure set"},
	} {
		code, stderr := cli(t, c.args...)
		if code != 2 {
			t.Errorf("%s: exit code %d, want 2\n%s", name, code, stderr)
		}
		if !strings.Contains(stderr, c.want) || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr should be one line containing %q, got:\n%s", name, c.want, stderr)
		}
	}
}

// TestListTrafficFollowsSeed: -list prints each scenario's traffic as built
// at -seed, like the rest of its lines. million-users draws a different
// client count at seeds 1 and 5, so a listing that builds the traffic line
// at seed 1 fails here.
func TestListTrafficFollowsSeed(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-list", "-seed", "5")
	cmd.Env = append(os.Environ(), "DRRS_BENCH_AS_CLI=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("drrs-bench -list -seed 5: %v", err)
	}
	if a, b := bench.ScenarioByName("million-users", 1).TrafficString(),
		bench.ScenarioByName("million-users", 5).TrafficString(); a == b {
		t.Fatalf("million-users traffic is the same at seeds 1 and 5 (%s); the check below proves nothing", a)
	}
	for _, def := range bench.Definitions() {
		if want := "traffic: " + def.New(5).TrafficString() + "\n"; !strings.Contains(string(out), want) {
			t.Errorf("%s: listing lacks its seed-5 line %q", def.Name, want)
		}
	}
}

// TestRunChaosWritesRecord runs the -chaos mode in process on one seed of
// node-loss-mid-migrate under drrs: a clean search exits 0 and its -json
// artifact parses with one case.
func TestRunChaosWritesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	if code := runChaos(bench.Harness{Workers: 1}, 1, "node-loss-mid-migrate", []string{"drrs"}, 1, path); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec chaosJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%v in:\n%s", err, data)
	}
	if rec.Cases != 1 {
		t.Fatalf("cases = %d, want 1", rec.Cases)
	}
}

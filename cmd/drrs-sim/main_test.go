package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"drrs/internal/workload"
)

// TestMain lets the test binary stand in for drrs-sim: re-executed with
// DRRS_SIM_AS_CLI=1 it runs main() on its arguments, so usage errors are
// checked at the process boundary (exit code, stderr) without a go build.
func TestMain(m *testing.M) {
	if os.Getenv("DRRS_SIM_AS_CLI") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cli runs drrs-sim with args and returns its exit code and stderr.
func cli(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DRRS_SIM_AS_CLI=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUsageErrorsExitTwoWithOneLine: every bad name and every flag
// combination the one run cannot honour is an error where it is resolved —
// exit 2 and one line on stderr, before anything runs, never a goroutine
// stack trace.
func TestUsageErrorsExitTwoWithOneLine(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.trace")
	if err := workload.Synthesize(workload.Live(workload.Spec{
		Cohorts:  []workload.Cohort{workload.DefaultCohort()},
		Duration: 1000,
	}), 1).WriteFile(trace); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.trace")
	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"unknown workload":  {[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		"unknown mechanism": {[]string{"-mechanism", "bogus"}, `unknown mechanism "bogus"`},
		// twitch drives a custom generator: there is no arrival stream to tee.
		"record twitch": {[]string{"-workload", "twitch", "-record", out}, "only custom-job scenarios record traces"},
		// A scripted wave program has no policy decisions to fork.
		"counterfactual on scripted": {[]string{"-workload", "twitch", "-counterfactual", "k=2:noop"}, "scripted wave program"},
		"malformed counterfactual":   {[]string{"-workload", "flash-crowd-reactive", "-counterfactual", "k=two:noop"}, "-counterfactual:"},
		"record+replay":              {[]string{"-workload", "trace-replay", "-record", out, "-replay", trace}, "mutually exclusive"},
	} {
		code, stderr := cli(t, c.args...)
		if code != 2 {
			t.Errorf("%s: exit code %d, want 2\n%s", name, code, stderr)
		}
		if !strings.Contains(stderr, c.want) || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr should be one line containing %q, got:\n%s", name, c.want, stderr)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("a rejected -record wrote %s", out)
	}
}

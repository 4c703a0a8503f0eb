// Package cliopts binds the run-override flags shared by cmd/drrs-bench and
// cmd/drrs-sim — cluster topology, placement policy, driving mode, control
// policy, fault plan, trace replay — and parses them once into a
// bench.Overrides value. Both binaries get the same flag names, help text,
// and validation from one place, so they cannot drift. Recording a trace is
// a single-run act and lives in drrs-sim alone.
package cliopts

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"drrs/internal/bench"
	"drrs/internal/cluster"
	"drrs/internal/control"
	"drrs/internal/faults"
	"drrs/internal/workload"
)

// Common holds the shared override flags after parsing.
type Common struct {
	Topology  string
	Placement string
	Driver    string
	Policy    string
	Faults    string
	Replay    string
}

// Bind registers the shared flags on fs (call before fs.Parse).
func (c *Common) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.Topology, "topology", "",
		"override the run's cluster: "+strings.Join(bench.Topologies(), " | "))
	fs.StringVar(&c.Placement, "placement", "",
		"override the run's placement policy: spread | pack | rack-local")
	fs.StringVar(&c.Driver, "driver", "",
		"override the run's driving: script | controller")
	fs.StringVar(&c.Policy, "policy", "",
		"control policy for controller driving: "+strings.Join(control.PolicyNames(), " | "))
	fs.StringVar(&c.Faults, "faults", "",
		"override the run's fault plan: a fault spec (e.g. crash@12s:node=r0n1,restart=6s;ckpt=2s) or off")
	fs.StringVar(&c.Replay, "replay", "",
		"replay a recorded trace file as the run's traffic")
}

// Overrides validates the parsed flags (names, fault-spec grammar, trace file)
// and returns them as the value the binaries hand to a bench.Harness or Apply
// to their one scenario. Every failure is a usage error.
func (c *Common) Overrides() (bench.Overrides, error) {
	ov := bench.Overrides{Topology: c.Topology, Placement: c.Placement, Driver: c.Driver, Policy: c.Policy}
	check := func(kind, name string, known []string) error {
		if name == "" || slices.Contains(known, name) {
			return nil
		}
		return fmt.Errorf("bench: unknown %s %q (known: %s)", kind, name, strings.Join(known, ", "))
	}
	err := errors.Join(
		check("topology", c.Topology, bench.Topologies()),
		check("placement policy", c.Placement, cluster.PolicyNames()),
		check("driver", c.Driver, []string{"script", "controller"}),
		check("policy", c.Policy, control.PolicyNames()))
	if err != nil {
		return ov, err
	}
	ov.NoFaults = c.Faults == "off"
	if c.Faults != "" && !ov.NoFaults {
		if ov.Faults, err = faults.ParseSpec(c.Faults); err != nil {
			return ov, err
		}
	}
	if c.Replay != "" {
		if ov.Replay, err = workload.ReadTraceFile(c.Replay); err != nil {
			return ov, fmt.Errorf("-replay: %w", err)
		}
	}
	return ov, nil
}

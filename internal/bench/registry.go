package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Definition is one registered scenario: a name, a one-line description for
// listings, and a constructor. Registering a scenario is all it takes to make
// it reachable from drrs-bench (-list, -workload, sweeps) and the figure
// harnesses.
type Definition struct {
	Name        string
	Description string
	// Layout names the deployment substrate for listings ("" reads as the
	// default flat single-node cluster).
	Layout string
	New    func(seed int64) Scenario
}

// TrafficSummary is the listing's one-line arrival-stream summary: the
// constructed scenario's own description.
func (def Definition) TrafficSummary() string {
	return def.New(1).TrafficString()
}

// registry is populated from init functions (scenarios.go) and read-only
// afterwards, so the parallel runners need no locking.
var (
	registry = map[string]Definition{}
	regOrder []string
)

// Register adds a scenario definition. It panics on duplicates or malformed
// definitions — both are programming errors caught at init time.
func Register(def Definition) {
	if def.Name == "" || def.New == nil {
		panic("bench: Register needs a name and a constructor")
	}
	if _, dup := registry[def.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate scenario %q", def.Name))
	}
	registry[def.Name] = def
	regOrder = append(regOrder, def.Name)
}

// Definitions returns all registered scenarios in registration order.
func Definitions() []Definition {
	out := make([]Definition, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name])
	}
	return out
}

// ScenarioNames returns the registered names in registration order.
func ScenarioNames() []string { return append([]string(nil), regOrder...) }

// lookup resolves a registered scenario name; an unknown one is an error
// listing every known name.
func lookup(name string) (Definition, error) {
	def, ok := registry[name]
	if !ok {
		known := ScenarioNames()
		sort.Strings(known)
		return def, fmt.Errorf("bench: unknown workload %q (known: %s)", name, strings.Join(known, ", "))
	}
	return def, nil
}

// ScenarioByName builds a registered scenario for the seed. An unknown name
// panics with lookup's error: callers holding a user-supplied name resolve it
// through Harness.Scenario instead.
func ScenarioByName(name string, seed int64) Scenario {
	def, err := lookup(name)
	if err != nil {
		panic(err)
	}
	return def.New(seed)
}

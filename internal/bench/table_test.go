package bench

import (
	"reflect"
	"strings"
	"testing"

	"drrs/internal/scaling"
)

// shared is the test binary's one outcome table. The golden, event-budget,
// shape, fitness, sparkline, digest-sensitivity and fetch-stat tests read
// their runs from it, and determinism tests take their first run from it, so
// a cell several tests ask for runs once. Tests whose seed is arbitrary use
// the seeds of golden or event-budget cells for the same reason. Each request runs its missing cells
// one at a time on the asking test's goroutine; the tests themselves run in
// parallel.
var shared = Harness{Workers: 1}.WithTable()

// sharedRun returns the shared table's outcome of one cell.
func sharedRun(t *testing.T, scenario string, seed int64, mech string) Outcome {
	t.Helper()
	outs, err := shared.outcomes([]cell{{Scenario: scenario, Seed: seed, Mechanism: mech}})
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func noScale() scaling.Mechanism { return nil }

// tableLen counts the cells the shared table holds or is running, and how
// many of cells are among them.
func tableLen(cells []cell) (all, held int) {
	shared.table.Range(func(any, any) bool { all++; return true })
	for _, c := range cells {
		if _, ok := shared.table.Load(c); ok {
			held++
		}
	}
	return all, held
}

// TestTableRunsEachCellOnce: figures over one table run a cell they share
// once, asking again for the same cells returns the same outcomes and runs
// nothing, and an empty seed list fails naming the figure before asking for
// anything. The cells are golden cells, so the shared table holds them for
// other tests anyway. Not parallel: the table's size is read while no other
// test adds to it.
func TestTableRunsEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four chaos-scenario cells")
	}
	mechs, seeds := []string{"drrs", "meces"}, []int64{1, 2}
	var cells []cell
	for _, mech := range mechs {
		for _, seed := range seeds {
			cells = append(cells, cell{Scenario: "node-loss-mid-migrate", Seed: seed, Mechanism: mech})
		}
	}
	before, held := tableLen(cells)
	if _, err := shared.Sweep([]string{"node-loss-mid-migrate"}, mechs, seeds); err != nil {
		t.Fatal(err)
	}
	filled, _ := tableLen(nil)
	if filled-before != len(cells)-held {
		t.Fatalf("the sweep added %d cells, want the %d it lacked", filled-before, len(cells)-held)
	}
	if _, err := shared.ControlFigure("node-loss-mid-migrate", mechs, seeds); err != nil {
		t.Fatal(err)
	}
	if n, _ := tableLen(nil); n != filled {
		t.Fatalf("a figure sharing every cell with the sweep added %d cells", n-filled)
	}

	a, err := shared.outcomes(cells)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shared.outcomes(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if a[i].Latency != b[i].Latency || OutcomeDigest(a[i]) != OutcomeDigest(b[i]) {
			t.Fatalf("%+v: a second request returned a different outcome", cells[i])
		}
	}

	if _, err := shared.MultiWave("node-loss-mid-migrate", mechs, nil); err == nil ||
		!strings.Contains(err.Error(), "MultiWave") || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("MultiWave with no seeds: err = %v, want one naming the figure and the seeds", err)
	}
	if n, _ := tableLen(nil); n != filled {
		t.Fatalf("repeated and failed requests added %d cells", n-filled)
	}
}

// TestOutcomeHoldsNoLiveRun: a table keeps every Outcome until it is dropped,
// so an Outcome must hold measurements only. Walking its type, any interface,
// func or chan could hold a live run, and a pointer into engine or scaling
// pins one outright.
func TestOutcomeHoldsNoLiveRun(t *testing.T) {
	pinning := func(pkg string) bool {
		for _, p := range []string{"drrs/internal/engine", "drrs/internal/scaling"} {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return true
			}
		}
		return false
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s has kind %s (%v)", path, ty.Kind(), ty)
		case reflect.Pointer:
			if pinning(ty.Elem().PkgPath()) {
				t.Errorf("%s points into %s (%v)", path, ty.Elem().PkgPath(), ty)
			}
			walk(path, ty.Elem())
		case reflect.Slice, reflect.Array:
			walk(path+"[i]", ty.Elem())
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[key]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("Outcome", reflect.TypeOf(Outcome{}))
}

package bench

import (
	"encoding/json"
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

// TestFiguresReadGoldenCells: Fig 2, the Twitch head-to-head and Fig 14 at
// seed 7 read only golden twitch cells, so none adds a cell, and each returns
// a row for every mechanism it names. Not parallel: the table's size is read
// while no other test adds to it, and the golden cells, which the golden test
// reads anyway, run first across every core.
func TestFiguresReadGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden twitch/7 cells")
	}
	var golden []cell
	for _, g := range goldenDigests {
		if g.scenario == "twitch" && g.seed == 7 {
			golden = append(golden, cell{Scenario: g.scenario, Seed: g.seed, Mechanism: g.mech})
		}
	}
	h := shared
	h.Workers = 0
	if _, err := h.outcomes(golden); err != nil {
		t.Fatal(err)
	}
	seeds := []int64{7}
	for _, f := range []struct {
		name  string
		mechs []string
		run   func() (FigureResult, error)
	}{
		{"Fig2", []string{"otfs", "unbound", "no-scale"}, func() (FigureResult, error) { return shared.Fig2(seeds) }},
		{"HeadToHead", headToHead, func() (FigureResult, error) { return shared.HeadToHead("twitch", seeds) }},
		{"Fig14", []string{"drrs", "drrs-dr", "drrs-schedule", "drrs-subscale"}, func() (FigureResult, error) { return shared.Fig14(seeds) }},
	} {
		before, _ := tableLen(nil)
		res, err := f.run()
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := tableLen(nil); n != before {
			t.Errorf("%s added %d cells to the golden ones", f.name, n-before)
		}
		for _, mech := range f.mechs {
			if _, ok := res.Rows[mech]; !ok {
				t.Errorf("%s has no %s row", f.name, mech)
			}
		}
	}
}

// TestFig15Rows: Fig 15 on a grid of one rate, one state size and two skews
// has one row per mechanism and point, each with the deviation column that
// other figures' rows leave out of -json, and a second call on the same table
// runs nothing. Not parallel: the table's size is read while no other test
// adds to it, and the cells run across every core.
func TestFig15Rows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six sensitivity-grid cells")
	}
	h := shared
	h.Workers = 0
	rates, sizes, skews := []float64{6000}, []int{5 << 20}, []float64{0, 1.5}
	res, err := h.Fig15(1, rates, sizes, skews)
	if err != nil {
		t.Fatal(err)
	}
	filled, _ := tableLen(nil)
	if len(res.Rows) != 6 {
		t.Errorf("%d rows, want 3 mechanisms × 2 points", len(res.Rows))
	}
	for _, mech := range []string{"drrs", "megaphone", "meces"} {
		for _, skew := range skews {
			label := gridPoint{rates[0], sizes[0], skew}.row(mech)
			if r, ok := res.Rows[label]; !ok || r.Deviation == nil {
				t.Errorf("no %s row with a deviation: %+v", label, r)
			}
		}
	}
	if _, err := h.Fig15(1, rates, sizes, skews); err != nil {
		t.Fatal(err)
	}
	if n, _ := tableLen(nil); n != filled {
		t.Fatalf("a second Fig15 added %d cells", n-filled)
	}
	with, err := json.Marshal(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	without, err := json.Marshal(Row{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(with), `"Deviation"`) || strings.Contains(string(without), `"Deviation"`) {
		t.Errorf("-json should carry Deviation on Fig 15 rows only:\n%s\n%s", with, without)
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

package dataflow

import (
	"testing"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

type nopLogic struct{}

func (nopLogic) OnRecord(OpContext, *netsim.Record)  {}
func (nopLogic) OnWatermark(OpContext, simtime.Time) {}

func specSource(name string, p int) *OperatorSpec {
	return &OperatorSpec{Name: name, Parallelism: p, Source: func(SourceContext) {}}
}

func specOp(name string, p int, keyed bool) *OperatorSpec {
	return &OperatorSpec{
		Name: name, Parallelism: p, KeyedInput: keyed,
		NewLogic: func() Logic { return nopLogic{} },
	}
}

func linearGraph() *Graph {
	g := NewGraph()
	g.AddOperator(specSource("src", 2))
	g.AddOperator(specOp("agg", 4, true))
	g.AddOperator(specOp("sink", 1, false))
	g.Connect("src", "agg", ExchangeKeyed)
	g.Connect("agg", "sink", ExchangeRebalance)
	return g
}

func TestGraphTopologicalOrder(t *testing.T) {
	g := linearGraph()
	order := g.Topological()
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["src"] < pos["agg"] && pos["agg"] < pos["sink"]) {
		t.Fatalf("order %v", order)
	}
}

func TestGraphPredSucc(t *testing.T) {
	g := linearGraph()
	if p := g.Predecessors("agg"); len(p) != 1 || p[0] != "src" {
		t.Fatalf("preds %v", p)
	}
	if s := g.Successors("agg"); len(s) != 1 || s[0] != "sink" {
		t.Fatalf("succs %v", s)
	}
	if len(g.Predecessors("src")) != 0 || len(g.Successors("sink")) != 0 {
		t.Fatal("terminal ops should have no preds/succs")
	}
}

func TestGraphValidate(t *testing.T) {
	g := linearGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewGraph()
	bad.AddOperator(specOp("floating", 1, false))
	if err := bad.Validate(); err == nil {
		t.Fatal("operator without inputs should fail validation")
	}
	cyclic := NewGraph()
	cyclic.AddOperator(specSource("src", 1))
	cyclic.AddOperator(specOp("a", 1, false))
	cyclic.AddOperator(specOp("b", 1, false))
	cyclic.Connect("src", "a", ExchangeRebalance)
	cyclic.Connect("a", "b", ExchangeRebalance)
	cyclic.Connect("b", "a", ExchangeRebalance)
	if err := cyclic.Validate(); err == nil {
		t.Fatal("src → a → b → a should fail validation")
	}
}

func TestGraphDuplicatePanics(t *testing.T) {
	g := NewGraph()
	g.AddOperator(specSource("a", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate")
		}
	}()
	g.AddOperator(specSource("a", 1))
}

func TestGraphKeyedRequiresKeyedExchange(t *testing.T) {
	g := NewGraph()
	g.AddOperator(specSource("s", 1))
	g.AddOperator(specOp("k", 2, true))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: keyed op with rebalance input")
		}
	}()
	g.Connect("s", "k", ExchangeRebalance)
}

func TestGraphSourceCannotHaveInputs(t *testing.T) {
	g := NewGraph()
	g.AddOperator(specSource("a", 1))
	g.AddOperator(specSource("b", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: edge into source")
		}
	}()
	g.Connect("a", "b", ExchangeRebalance)
}

func TestSpecValidation(t *testing.T) {
	bad := &OperatorSpec{Name: "", Parallelism: 1, Source: func(SourceContext) {}}
	if bad.validate() == nil {
		t.Fatal("empty name should fail")
	}
	bad2 := &OperatorSpec{Name: "x", Parallelism: 0, Source: func(SourceContext) {}}
	if bad2.validate() == nil {
		t.Fatal("zero parallelism should fail")
	}
	bad3 := &OperatorSpec{Name: "x", Parallelism: 1}
	if bad3.validate() == nil {
		t.Fatal("no logic should fail")
	}
	keyed := specOp("x", 1, true)
	if err := keyed.validate(); err != nil || keyed.MaxKeyGroups != 128 {
		t.Fatalf("default MaxKeyGroups: %d err %v", keyed.MaxKeyGroups, err)
	}
}

func TestRoutingTableContiguous(t *testing.T) {
	rt := NewRoutingTable(128, 8)
	// Each instance should own a contiguous run of 16 groups.
	for kg := 0; kg < 128; kg++ {
		if rt.Owner(kg) != kg/16 {
			t.Fatalf("kg %d owner %d", kg, rt.Owner(kg))
		}
	}
}

func TestRoutingTableCloneIsolation(t *testing.T) {
	rt := NewRoutingTable(16, 4)
	cl := rt.Clone()
	cl.SetOwner(0, 3)
	if rt.Owner(0) == 3 {
		t.Fatal("clone not isolated")
	}
	if cl.Owner(0) != 3 {
		t.Fatal("SetOwner lost")
	}
}

func TestUniformRepartitionPaperSetup(t *testing.T) {
	// The paper's main experiments: 128 key groups, 8→12 instances migrates
	// 111 key groups.
	moves := UniformRepartition(128, 8, 12)
	if len(moves) != 111 {
		t.Fatalf("8→12 over 128 moves %d groups, paper says 111", len(moves))
	}
	// Sensitivity setup: 256 key groups, 25→30 migrates 229.
	moves = UniformRepartition(256, 25, 30)
	if len(moves) != 229 {
		t.Fatalf("25→30 over 256 moves %d groups, paper says 229", len(moves))
	}
}

func TestUniformRepartitionConsistency(t *testing.T) {
	moves := UniformRepartition(128, 8, 12)
	for _, m := range moves {
		if m.From == m.To {
			t.Fatalf("no-op move for kg %d", m.KeyGroup)
		}
		if m.From < 0 || m.From >= 8 || m.To < 0 || m.To >= 12 {
			t.Fatalf("bad move %+v", m)
		}
	}
	// Scaling in reverse must also be well-formed.
	down := UniformRepartition(128, 12, 8)
	if len(down) != len(moves) {
		t.Fatalf("down-scale moves %d, up-scale %d", len(down), len(moves))
	}
}

func TestDiamondGraphTopology(t *testing.T) {
	g := NewGraph()
	g.AddOperator(specSource("s", 1))
	g.AddOperator(specOp("a", 1, false))
	g.AddOperator(specOp("b", 1, false))
	g.AddOperator(specOp("join", 2, true))
	g.Connect("s", "a", ExchangeRebalance)
	g.Connect("s", "b", ExchangeRebalance)
	g.Connect("a", "join", ExchangeKeyed)
	g.Connect("b", "join", ExchangeKeyed)
	order := g.Topological()
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["s"] < pos["a"] && pos["s"] < pos["b"] && pos["a"] < pos["join"] && pos["b"] < pos["join"]) {
		t.Fatalf("diamond order %v", order)
	}
	if len(g.Predecessors("join")) != 2 {
		t.Fatal("join should have two predecessors")
	}
}

// TestExchangeString names each exchange kind and numbers an unknown one.
func TestExchangeString(t *testing.T) {
	for e, want := range map[Exchange]string{
		ExchangeKeyed:     "keyed",
		ExchangeRebalance: "rebalance",
		ExchangeBroadcast: "broadcast",
		Exchange(7):       "exchange(7)",
	} {
		if got := e.String(); got != want {
			t.Errorf("Exchange(%d).String() = %q, want %q", int(e), got, want)
		}
	}
}

package chaos

import (
	"drrs/internal/bench"
	"drrs/internal/faults"
	"drrs/internal/simtime"
)

// ShrinkViolation minimizes a violation's fault plan by delta debugging:
// greedily drop faults one at a time to a fixpoint, then simplify the
// survivors (round onsets to 500 ms, drop restarts). Every candidate is
// accepted only if re-executing the case still reproduces the same oracle
// violation; budget caps the re-executions, so the worst case degrades to
// "no shrink", never to a false repro. The returned violation's Spec string
// plus its seed replays the minimized failure exactly.
func ShrinkViolation(v Violation, h bench.Harness, budget int) Violation {
	if budget <= 0 {
		budget = 24
	}
	runs := 0
	reproduces := func(p faults.Plan) bool {
		if runs >= budget {
			return false
		}
		runs++
		fs := execCase(v.Scenario, v.Mechanism, v.Seed, p, v.Oracle == OracleDeterminism, h)
		return hasOracle(fs, v.Oracle)
	}

	cur := clonePlanVal(v.Plan)
	// Phase 1: drop one fault at a time until no single drop reproduces.
	for changed := true; changed && len(cur.Faults) > 1; {
		changed = false
		for i := range cur.Faults {
			cand := cur
			cand.Faults = dropFault(cur.Faults, i)
			if reproduces(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	// Phase 2: simplify each surviving fault.
	for i := range cur.Faults {
		if r := cur.Faults[i].At % (500 * simtime.Millisecond); r != 0 {
			cand := withFault(cur, i, func(f *faults.Fault) { f.At -= r })
			if reproduces(cand) {
				cur = cand
			}
		}
		if cur.Faults[i].Restart > 0 {
			cand := withFault(cur, i, func(f *faults.Fault) { f.Restart = 0 })
			if reproduces(cand) {
				cur = cand
			}
		}
	}

	v.Plan = cur
	v.Spec = specOf(cur)
	v.Shrunk = true
	v.ShrinkRuns = runs
	return v
}

// dropFault returns a copy of fs without element i.
func dropFault(fs []faults.Fault, i int) []faults.Fault {
	out := make([]faults.Fault, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	return append(out, fs[i+1:]...)
}

// withFault returns a copy of the plan with mutate applied to fault i.
func withFault(p faults.Plan, i int, mutate func(*faults.Fault)) faults.Plan {
	cp := clonePlanVal(p)
	mutate(&cp.Faults[i])
	return cp
}

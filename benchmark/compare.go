package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload and metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func (d *document) workload(name string) *workloadReport {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

// overlap reports whether the two metrics' ranges over their timed passes
// intersect; metrics without a recorded range are taken to overlap.
func overlap(a, b metricValue) bool {
	if a.Min == nil || a.Max == nil || b.Min == nil || b.Max == nil {
		return true
	}
	return *a.Min <= *b.Max && *b.Min <= *a.Max
}

// passSpread is a metric's interquartile spread over its timed passes as a
// share of its value — for wall_s, bench.rep_spread_frac.
func passSpread(m metricValue) float64 {
	if m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
		return 0
	}
	return math.Abs((*m.Q3 - *m.Q1) / m.Value)
}

// setupFloorS is the absolute change below which setup_s is unchanged
// whatever the percentage: set-up is well under a second on three workloads.
const setupFloorS = 0.050

// judge compares one bounded metric: B against baseline A. A side whose own
// passes spread wider than the bound cannot resolve a difference of the
// bound's size, so unless the two sides' ranges are disjoint the verdict is
// "unresolved".
func judge(a, b metricValue) string {
	if a.Value == 0 {
		return verdictUnresolved
	}
	if a.Name == "setup_s" && math.Abs(b.Value-a.Value) < setupFloorS {
		return verdictUnchanged
	}
	change := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		change = -change
	}
	// change > 0 now means B is worse.
	noisy := passSpread(a) > a.Bound || passSpread(b) > a.Bound
	switch {
	case noisy && overlap(a, b):
		return verdictUnresolved
	case change > a.Bound:
		return verdictWorse
	case change < -a.Bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// compareFiles applies each metric's bound per workload. Exact metrics (the
// simulated trio and every count) must be equal; a difference is "worse"
// whatever its direction, because a fixed seed must reproduce them. So is a
// workload or a metric that one file has and the other lacks: a comparison
// that lost a row proves nothing about it. Host-side per-layer numbers have
// no bound and are listed for attribution only. Returns 1 when anything is
// worse, 0 otherwise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if a.Context.Seed != b.Context.Seed {
		fmt.Fprintf(stdout, "note: seeds differ (%d vs %d); exact metrics are not comparable and are skipped\n",
			a.Context.Seed, b.Context.Seed)
	}
	sameSeed := a.Context.Seed == b.Context.Seed
	counts := map[string]int{}
	missing := func(what, path string) {
		fmt.Fprintf(stdout, "  %-44s missing from %s  %s\n", what, path, verdictWorse)
		counts[verdictWorse]++
	}
	for i := range b.Workloads {
		if name := b.Workloads[i].Name; a.workload(name) == nil {
			fmt.Fprintf(stdout, "== %s\n", name)
			missing("workload", pathA)
		}
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		fmt.Fprintf(stdout, "== %s\n", wa.Name)
		wb := b.workload(wa.Name)
		if wb == nil {
			missing("workload", pathB)
			continue
		}
		if wa.CellsFailed != wb.CellsFailed {
			verdict := verdictBetter
			if wb.CellsFailed > wa.CellsFailed {
				verdict = verdictWorse
			}
			fmt.Fprintf(stdout, "  %-44s %16d -> %-16d %s\n", "cells_failed", wa.CellsFailed, wb.CellsFailed, verdict)
			counts[verdict]++
		}
		for _, mb := range append(append([]metricValue(nil), wb.EndToEnd...), wb.PerLayer...) {
			if _, ok := wa.metric(mb.Name); !ok {
				missing(mb.Name, pathA)
			}
		}
		for _, list := range [][]metricValue{wa.EndToEnd, wa.PerLayer} {
			for _, ma := range list {
				mb, ok := wb.metric(ma.Name)
				if !ok {
					missing(ma.Name, pathB)
					continue
				}
				if ma.Name == "bench.cells_failed" {
					continue // judged above, where a fall is not a regression
				}
				exact := exactKind(ma.Kind)
				verdict := "info"
				switch {
				case exact:
					if !sameSeed {
						continue
					}
					verdict = verdictUnchanged
					if ma.Value != mb.Value {
						verdict = verdictWorse
					}
				case ma.Kind == kindEndToEnd:
					verdict = judge(ma, mb)
				}
				if verdict != "info" {
					counts[verdict]++
				}
				if verdict == verdictUnchanged && exact {
					continue // equal counts are the expected case; keep the listing short
				}
				fmt.Fprintf(stdout, "  %-44s %16.6g -> %-16.6g %+7.2f%%  %s\n", ma.Name, ma.Value, mb.Value,
					safeDiv(mb.Value-ma.Value, ma.Value)*100, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "summary: %d better, %d worse, %d unchanged, %d unresolved\n",
		counts[verdictBetter], counts[verdictWorse], counts[verdictUnchanged], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

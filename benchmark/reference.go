package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// reference.json pins every cell's digest, records and events at one seed, as
// measured when the benchmark was defined. A cell that no longer matches is
// reported as bench.digest_drift_cells — informational, never a failure: a
// later change that re-pins golden digests for a stated reason must be
// visible here without being blocked by a file it may not edit.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed      int64               `json:"seed"`
	Workloads []referenceWorkload `json:"workloads"`
}

type referenceWorkload struct {
	Name  string          `json:"name"`
	Cells []referenceCell `json:"cells"`
}

type referenceCell struct {
	ID      string `json:"id"`
	Digest  string `json:"digest"`
	Records int64  `json:"records"`
	Events  uint64 `json:"events"`
}

func loadReference() (*referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// drift counts the cells whose digest, records or events differ from the
// reference. Runs at another seed than the reference's have nothing to
// compare against and report 0.
func (ref *referenceFile) drift(workloadName string, seed int64, cells []cellResult) int {
	if seed != ref.Seed {
		return 0
	}
	for _, w := range ref.Workloads {
		if w.Name != workloadName {
			continue
		}
		want := map[string]referenceCell{}
		for _, c := range w.Cells {
			want[c.ID] = c
		}
		n := 0
		for i := range cells {
			c := &cells[i]
			if r, ok := want[c.ID]; ok && c.Err == nil &&
				(r.Digest != fmt.Sprintf("%016x", c.Digest) || r.Records != c.Records || r.Events != c.Events) {
				n++
			}
		}
		return n
	}
	return 0
}

// referenceFrom builds the file -write-reference emits.
func referenceFrom(seed int64, reports []workloadReport) referenceFile {
	ref := referenceFile{Seed: seed}
	for _, r := range reports {
		w := referenceWorkload{Name: r.Name}
		for _, c := range r.CellDetail {
			w.Cells = append(w.Cells, referenceCell{ID: c.ID, Digest: c.Digest, Records: c.Records, Events: c.Events})
		}
		ref.Workloads = append(ref.Workloads, w)
	}
	return ref
}

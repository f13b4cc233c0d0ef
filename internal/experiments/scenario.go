package experiments

// E13 — the all-strategies comparative matrix, driven by the scenario
// corpus. Workload breadth stops being gated on editing Go: the committed
// .tfs files under testdata/scenarios/ describe the shootout
// declaratively (in the spirit of Hannan et al.'s comparative analysis of
// classic collection algorithms), the scenario compiler turns them into
// the same pipeline.Options the hand-coded harnesses build — pinned by
// internal/scenario's differential suite — and this table summarizes the
// resulting matrix.

import (
	"fmt"
	"time"

	"tagfree/internal/scenario"
)

// E13ScenarioMatrix compiles and runs the committed scenario corpus and
// renders one row per executed cell (skipped combinations keep their row,
// with the reason). The matrix doubles as a cross-strategy correctness
// check: the ok column asserts every task returned its expected value.
func E13ScenarioMatrix() *Table {
	dir, err := scenario.FindCorpusDir()
	if err != nil {
		panic(fmt.Sprintf("E13: %v", err))
	}
	scs, err := scenario.LoadPath(dir)
	if err != nil {
		panic(fmt.Sprintf("E13: %v", err))
	}
	cells, err := scenario.Compile(scs)
	if err != nil {
		panic(fmt.Sprintf("E13: %v", err))
	}
	snap := scenario.RunMatrix(cells)

	t := &Table{
		ID:    "E13",
		Title: "scenario matrix: all strategies × all disciplines over the declarative corpus",
		Claim: "the comparative evaluation is data, not code: .tfs scenarios compile to the same configurations the hand-coded harnesses build, and the resulting matrix covers every strategy × discipline × scenario cell",
		Header: []string{"scenario", "workload", "strategy", "discipline",
			"ok", "gcs", "gc pause", "alloc words", "note"},
	}
	for _, r := range snap.Runs {
		ok, note := "yes", ""
		switch {
		case r.Skip != "":
			ok, note = "-", "skip: "+r.Skip
		case r.Error != "":
			ok, note = "no", "error: "+r.Error
		case !r.OK:
			ok = "no"
			note = fmt.Sprintf("%d task(s) faulted / wrong result", r.Faulted)
		}
		gcs, pause, alloc := "-", "-", "-"
		if r.Skip == "" && r.Error == "" {
			gcs = fmt.Sprint(r.Collections)
			pause = time.Duration(r.GCPauseNS).String()
			alloc = fmt.Sprint(r.AllocWords)
		}
		t.Rows = append(t.Rows, []string{r.Scenario, r.Workload, r.Strategy, r.Discipline,
			ok, gcs, pause, alloc, note})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("corpus: %s — %d scenarios compiled to %d cells (%d run)", dir, len(scs), len(cells), len(cells)-countSkips(cells)),
		"each cell is one pipeline.RunTasks invocation with the scenario-compiled Options; the scenario differential suite pins those Options (and the resulting live-heap signature) against hand-coded twins",
		"skipped rows are combinations the runtime rejects by design (mark/sweep or a nursery under the tagged baseline), reported so the matrix stays total",
		"regenerate any subset with `tfbench -scenario <file|dir>`; add -json (or -bench-json <file>) for the tagfree-bench/v1 snapshot",
	)
	return t
}

func countSkips(cells []scenario.Cell) int {
	n := 0
	for _, c := range cells {
		if c.Skip != "" {
			n++
		}
	}
	return n
}

package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"tagfree/internal/gc"
)

// TestScenarioMatrixSmoke compiles and runs a small scenario crossing two
// strategies and both disciplines, checking that every cell is accounted
// for: the tagged × mark/sweep combination as a reported skip, everything
// else as a correct run.
func TestScenarioMatrixSmoke(t *testing.T) {
	scs, err := Parse(`
scenario smoke {
  workload    taskpoly
  strategies  compiled tagged
  disciplines copying marksweep
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	snap := RunMatrix(cells)
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, SnapshotSchema)
	}
	skipped := 0
	for _, r := range snap.Runs {
		if r.Skip != "" {
			skipped++
			if r.Strategy != "tagged" || r.Discipline != "mark/sweep" {
				t.Errorf("unexpected skip: %s (%s)", r.Name, r.Skip)
			}
			continue
		}
		if r.Error != "" {
			t.Errorf("%s: %s", r.Name, r.Error)
			continue
		}
		if !r.OK {
			t.Errorf("%s: not ok (faulted=%d)", r.Name, r.Faulted)
		}
		if r.Records == 0 || r.Collections == 0 {
			t.Errorf("%s: no collections recorded (records=%d gcs=%d)", r.Name, r.Records, r.Collections)
		}
	}
	if skipped != 1 {
		t.Errorf("skipped %d cells, want 1", skipped)
	}

	// The JSON form round-trips under the bench snapshot schema.
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Schema != SnapshotSchema || len(back.Runs) != len(snap.Runs) {
		t.Errorf("round trip lost data: schema=%q runs=%d", back.Schema, len(back.Runs))
	}

	table := snap.Table()
	for _, want := range []string{"smoke", "taskpoly", "compiled", "tagged",
		"mark/sweep", "skip: mark/sweep is implemented for the tag-free strategies"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestScenarioMatrixTotalsMultiReasonSkips pins the skip-row accounting:
// a cell outside the supported envelope on several counts (here tagged ×
// mark/sweep × gc_concurrent × shards) is exactly one skipped row whose
// Skip string carries every applicable reason, and the matrix header's
// totals always satisfy total == run + skipped.
func TestScenarioMatrixTotalsMultiReasonSkips(t *testing.T) {
	scs, err := Parse(`
scenario multi {
  workload    taskpoly
  strategies  compiled tagged
  disciplines marksweep
  shards      1 2
  gc_concurrent
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 strategies x 2 shard counts)", len(cells))
	}
	snap := RunMatrix(cells)
	run, skipped := 0, 0
	for _, r := range snap.Runs {
		if r.Skip != "" {
			skipped++
		} else {
			run++
		}
	}
	if run != 1 || skipped != 3 {
		t.Fatalf("run=%d skipped=%d, want 1 run (compiled/sh1) and 3 single-counted skips", run, skipped)
	}
	table := snap.Table()
	if !strings.Contains(table, "scenario matrix: 4 cells (1 run, 3 skipped)") {
		t.Errorf("matrix totals line wrong:\n%s", table)
	}
	// The doubly-out-of-envelope cells carry every reason in one row.
	for _, r := range snap.Runs {
		switch r.Name {
		case "multi/compiled/marksweep/sh2":
			for _, want := range []string{
				"heap sharding requires a nursery",
				"heap sharding does not compose with concurrent marking",
			} {
				if !strings.Contains(r.Skip, want) {
					t.Errorf("%s: skip %q missing reason %q", r.Name, r.Skip, want)
				}
			}
			if strings.Count(r.Skip, ";") != 1 {
				t.Errorf("%s: want exactly 2 joined reasons, got %q", r.Name, r.Skip)
			}
		case "multi/tagged/marksweep/sh1":
			for _, want := range []string{
				"mark/sweep is implemented for the tag-free strategies",
				"concurrent marking requires a tag-free strategy",
			} {
				if !strings.Contains(r.Skip, want) {
					t.Errorf("%s: skip %q missing reason %q", r.Name, r.Skip, want)
				}
			}
		}
	}
}

// TestScenarioCorpusCompiles pins the committed corpus: every .tfs file
// parses, compiles, and together the "-all" scenarios cover the whole
// tasking corpus × all four strategies × both disciplines.
func TestScenarioCorpusCompiles(t *testing.T) {
	dir, err := FindCorpusDir()
	if err != nil {
		t.Fatalf("FindCorpusDir: %v", err)
	}
	scs, err := LoadPath(dir)
	if err != nil {
		t.Fatalf("LoadPath: %v", err)
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	type axis struct {
		workload string
		strat    gc.Strategy
		disc     Discipline
	}
	covered := map[axis]bool{}
	for _, c := range cells {
		covered[axis{c.Workload.Name, c.Strategy, c.Discipline}] = true
	}
	for _, w := range []string{"taskchurn", "tasktree", "taskpoly", "taskmutate", "taskdeep"} {
		for _, s := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel, gc.StratTagged} {
			for _, d := range []Discipline{Copying, MarkSweep} {
				if !covered[axis{w, s, d}] {
					t.Errorf("corpus does not cover %s/%s/%s", w, s, d.Key())
				}
			}
		}
	}
	// The fault-injection block is exercised by the committed corpus: the
	// tier2-scenario torture gate depends on it.
	torture := false
	for _, sc := range scs {
		if sc.Faults.Torture && sc.Faults.VerifyHeap {
			torture = true
		}
	}
	if !torture {
		t.Errorf("corpus has no torture+verify-heap scenario")
	}
}

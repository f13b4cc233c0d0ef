package scenario

import (
	"reflect"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

// The scenario differential suite: the DSL must add breadth without
// adding a second execution semantics. For a scenario mirroring today's
// hand-coded harness invocations, every compiled cell is checked against
// a hand-written pipeline.Options twin three ways:
//
//   - configuration-identical: the compiled cell's Options equal the
//     hand-coded struct field for field;
//   - observably identical: both runs return every task's expected value
//     and produce the same number of telemetry records;
//   - live-heap identical: gc.LiveSignature of both final heaps is
//     bit-identical (the canonical address-free serialization, so the
//     comparison holds for mark/sweep's history-dependent layouts too).

// handOpts is what a hand-coded harness (cmd/tfgc tasks, the telemetry
// report) builds for one configuration — written out longhand on purpose:
// this is the oracle the compiler is differenced against.
func handOpts(strat gc.Strategy, heapWords int, ms bool, nursery, promote, tlab int) pipeline.Options {
	return pipeline.Options{
		Strategy:     strat,
		HeapWords:    heapWords,
		MarkSweep:    ms,
		NurseryWords: nursery,
		PromoteAfter: promote,
		TLABWords:    tlab,
	}
}

func TestScenarioDifferentialHandCoded(t *testing.T) {
	scs, err := Parse(`
scenario diff {
  workload    taskchurn
  strategies  compiled appel
  disciplines copying marksweep
}

scenario diff-nursery {
  workload    taskmutate
  strategies  compiled
  nursery     256
  promote     2
}

scenario diff-tlab {
  workload    taskchurn
  strategies  compiled
  tlab        64
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	// The hand-coded twins, one per expected cell. taskchurn's
	// recommended heap is 2048 words, taskmutate's 4096 — the scenarios
	// above leave `heap` unset, so the compiler must default to them.
	churn := 2048
	mutate := 4096
	want := map[string]pipeline.Options{
		"diff/compiled/copying":         handOpts(gc.StratCompiled, churn, false, 0, 0, 0),
		"diff/compiled/marksweep":       handOpts(gc.StratCompiled, churn, true, 0, 0, 0),
		"diff/appel/copying":            handOpts(gc.StratAppel, churn, false, 0, 0, 0),
		"diff/appel/marksweep":          handOpts(gc.StratAppel, churn, true, 0, 0, 0),
		"diff-nursery/compiled/copying": handOpts(gc.StratCompiled, mutate, false, 256, 2, 0),
		"diff-tlab/compiled/copying":    handOpts(gc.StratCompiled, churn, false, 0, 0, 64),
	}
	if len(cells) != len(want) {
		t.Fatalf("compiled %d cells, want %d", len(cells), len(want))
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			hand, ok := want[cell.Name]
			if !ok {
				t.Fatalf("unexpected cell %q", cell.Name)
			}
			// Configuration-identical: the DSL compiled to exactly the
			// struct the hand-coded invocation builds.
			if !reflect.DeepEqual(cell.Opts, hand) {
				t.Fatalf("options mismatch\n scenario: %+v\n hand:     %+v", cell.Opts, hand)
			}

			w, ok := workloads.TaskByName(cell.Workload.Name)
			if !ok {
				t.Fatalf("workload %q missing", cell.Workload.Name)
			}
			scRes, err := pipeline.RunTasks(cell.Workload.Source, cell.Workload.Entries, cell.Opts)
			if err != nil {
				t.Fatalf("scenario run: %v", err)
			}
			handRes, err := pipeline.RunTasks(w.Source, w.Entries, hand)
			if err != nil {
				t.Fatalf("hand-coded run: %v", err)
			}
			for i, wantV := range w.Expect {
				if scRes.Values[i] != wantV || handRes.Values[i] != wantV {
					t.Errorf("task %d: scenario=%d hand=%d want=%d",
						i, scRes.Values[i], handRes.Values[i], wantV)
				}
			}
			if a, b := len(scRes.Telemetry.Records), len(handRes.Telemetry.Records); a != b {
				t.Errorf("telemetry records: scenario=%d hand=%d", a, b)
			}
			scSig := scRes.Group.Col.LiveSignature(scRes.Group.Globals)
			handSig := handRes.Group.Col.LiveSignature(handRes.Group.Globals)
			if !reflect.DeepEqual(scSig, handSig) {
				t.Errorf("live-heap signatures differ (%d vs %d words)", len(scSig), len(handSig))
			}
		})
	}
}

// TestScenarioDifferentialMatrixCounts cross-checks the matrix runner's
// reported record counts against a direct hand-coded run of the same
// configuration: the report must describe the run it claims to.
func TestScenarioDifferentialMatrixCounts(t *testing.T) {
	scs, err := Parse(`
scenario counts {
  workload    taskdeep
  strategies  compiled interp
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
	snap := RunMatrix(cells)
	for i, r := range snap.Runs {
		cell := cells[i]
		res, err := pipeline.RunTasks(cell.Workload.Source, cell.Workload.Entries, cell.Opts)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if !r.OK || r.Error != "" {
			t.Errorf("%s: matrix reported ok=%v err=%q", r.Name, r.OK, r.Error)
		}
		if r.Records != len(res.Telemetry.Records) {
			t.Errorf("%s: matrix records=%d, hand-coded=%d", r.Name, r.Records, len(res.Telemetry.Records))
		}
		if r.Collections != res.GCStats.Collections {
			t.Errorf("%s: matrix gcs=%d, hand-coded=%d", r.Name, r.Collections, res.GCStats.Collections)
		}
		if r.AllocWords != res.Heap.WordsAllocated {
			t.Errorf("%s: matrix alloc=%d, hand-coded=%d", r.Name, r.AllocWords, res.Heap.WordsAllocated)
		}
	}
}

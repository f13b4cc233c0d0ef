package gc_test

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

func wordsEqual(a, b []code.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSuspendedCallArgsTracedOnce is the regression test for a latent
// collector bug the differential suite exposed: a task suspended at a call
// has its staged argument slots traced through the site's argument map,
// and Appel mode's trace-everything slot walk already covers those slots.
// Tracing a slot twice in a copying collection dereferences the to-space
// pointer the first trace wrote there — an out-of-bounds forwarding lookup
// and a crash. The fix traces each slot at most once per frame.
func TestSuspendedCallArgsTracedOnce(t *testing.T) {
	w, ok := workloads.TaskByName("taskpoly")
	if !ok {
		t.Fatal("taskpoly workload missing")
	}
	res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
		Strategy:  gc.StratAppel,
		HeapWords: w.HeapWords,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
}

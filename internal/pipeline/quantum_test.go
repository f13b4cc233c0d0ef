package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// quantumSweepQuanta are the scheduling slices the quantum sweep pins.
// A quantum of 1 returns to the scheduler after every instruction, so no
// two instructions of a task ever run in one slice.
var quantumSweepQuanta = []int{1, 2, 3, 5, 97}

// TestQuantumSweepCountersGolden pins the task corpus's values and
// scheduling counters (instructions, collections, Rgc checks and every
// suspension latency) under the compiled strategy on a copying heap, at
// several quanta. Equal counters mean the tasks interleaved, raised Rgc and
// reached their safe points at exactly the same instructions.
func TestQuantumSweepCountersGolden(t *testing.T) {
	var got []string
	for _, w := range workloads.Tasking {
		for _, q := range quantumSweepQuanta {
			g, entries, err := BuildTaskGroup(w.Source, w.Entries, Options{Strategy: gc.StratCompiled, HeapWords: w.HeapWords})
			if err != nil {
				t.Fatalf("%s/q%d: %v", w.Name, q, err)
			}
			g.Quantum = q
			for _, e := range entries {
				g.Spawn(e)
			}
			if err := g.RunInit(); err != nil {
				t.Fatalf("%s/q%d: %v", w.Name, q, err)
			}
			if err := g.Run(); err != nil {
				t.Fatalf("%s/q%d: %v", w.Name, q, err)
			}
			var values []int64
			for _, task := range g.Tasks {
				if task.Status != tasking.Done {
					t.Fatalf("%s/q%d: task %d ended %v: %v", w.Name, q, task.ID, task.Status, task.Err)
				}
				values = append(values, code.DecodeInt(g.Prog.Repr, task.Result))
			}
			if fmt.Sprint(values) != fmt.Sprint(w.Expect) {
				t.Fatalf("%s/q%d: values %v, want %v", w.Name, q, values, w.Expect)
			}
			s := g.Stats
			got = append(got, fmt.Sprintf("%s/q%d values=%v instr=%d gcs=%d rgc=%d latency=%v",
				w.Name, q, values, s.Instructions, s.Collections, s.RgcChecks, s.SuspendLatency))
		}
	}
	want := strings.Split(strings.TrimSpace(quantumSweepCountersWant), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d lines:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != strings.TrimSpace(want[i]) {
			t.Errorf("counters differ:\n  got  %s\n  want %s", got[i], strings.TrimSpace(want[i]))
		}
	}
}

const quantumSweepCountersWant = `
taskchurn/q1 values=[13000 14000 15000 16000] instr=87561 gcs=3 rgc=8644 latency=[3 3 3]
taskchurn/q2 values=[13000 14000 15000 16000] instr=87561 gcs=3 rgc=8644 latency=[6 3 3]
taskchurn/q3 values=[13000 14000 15000 16000] instr=87561 gcs=3 rgc=8644 latency=[6 6 6]
taskchurn/q5 values=[13000 14000 15000 16000] instr=87561 gcs=3 rgc=8644 latency=[3 3 3]
taskchurn/q97 values=[13000 14000 15000 16000] instr=87561 gcs=3 rgc=8650 latency=[4 3 3]
tasktree/q1 values=[7410 7410 7410] instr=424939 gcs=9 rgc=46083 latency=[2 2 2 2 2 2 2 2 2]
tasktree/q2 values=[7410 7410 7410] instr=424939 gcs=9 rgc=46083 latency=[2 2 2 2 2 2 2 2 2]
tasktree/q3 values=[7410 7410 7410] instr=424939 gcs=9 rgc=46083 latency=[6 2 2 2 2 2 2 2 2]
tasktree/q5 values=[7410 7410 7410] instr=424939 gcs=9 rgc=46083 latency=[8 10 10 10 10 10 10 10 10]
tasktree/q97 values=[7410 7410 7410] instr=424939 gcs=9 rgc=46095 latency=[14 4 3 3 2 10 6 10 5]
taskpoly/q1 values=[5050 6050] instr=12823 gcs=4 rgc=1802 latency=[1 1 1 1]
taskpoly/q2 values=[5050 6050] instr=12823 gcs=4 rgc=1805 latency=[1 1 1 1]
taskpoly/q3 values=[5050 6050] instr=12823 gcs=4 rgc=1806 latency=[1 1 1 1]
taskpoly/q5 values=[5050 6050] instr=12823 gcs=4 rgc=1804 latency=[1 1 1 1]
taskpoly/q97 values=[5050 6050] instr=12823 gcs=4 rgc=1806 latency=[21 21 21 21]
taskmutate/q1 values=[23400 28400 32400] instr=266857 gcs=6 rgc=25509 latency=[8 2 2 2 2 2]
taskmutate/q2 values=[23400 28400 32400] instr=266857 gcs=6 rgc=25509 latency=[6 2 2 2 2 2]
taskmutate/q3 values=[23400 28400 32400] instr=266857 gcs=6 rgc=25509 latency=[4 4 2 2 2 2]
taskmutate/q5 values=[23400 28400 32400] instr=266857 gcs=6 rgc=25509 latency=[2 5 2 6 2 6]
taskmutate/q97 values=[23400 28400 32400] instr=266857 gcs=6 rgc=25516 latency=[2 44 6 49 6 45]
taskdeep/q1 values=[1500 1500] instr=39319 gcs=11 rgc=6042 latency=[1 1 1 1 1 1 1 1 1 1 1]
taskdeep/q2 values=[1500 1500] instr=39319 gcs=11 rgc=6048 latency=[4 2 3 1 1 1 4 2 3 1 1]
taskdeep/q3 values=[1500 1500] instr=39319 gcs=11 rgc=6051 latency=[3 2 2 1 4 2 3 1 4 2 2]
taskdeep/q5 values=[1500 1500] instr=39319 gcs=11 rgc=6048 latency=[3 1 4 1 4 1 3 1 4 1 4]
taskdeep/q97 values=[1500 1500] instr=39319 gcs=11 rgc=6050 latency=[3 1 4 3 1 1 600 313 313 306 410]
taskspine/q1 values=[27940 28940 29940] instr=119965 gcs=7 rgc=11769 latency=[5 2 2 2 2 2 2]
taskspine/q2 values=[27940 28940 29940] instr=119965 gcs=7 rgc=11769 latency=[4 2 2 2 2 2 2]
taskspine/q3 values=[27940 28940 29940] instr=119965 gcs=7 rgc=11769 latency=[3 6 6 6 6 6 6]
taskspine/q5 values=[27940 28940 29940] instr=119965 gcs=7 rgc=11769 latency=[8 6 6 6 6 6 6]
taskspine/q97 values=[27940 28940 29940] instr=119965 gcs=7 rgc=11779 latency=[6 5 17 18 4 11 103]
taskserve/q1 values=[650 2600 7800 31200] instr=71143 gcs=3 rgc=7024 latency=[1 0 0]
taskserve/q2 values=[650 2600 7800 31200] instr=71143 gcs=3 rgc=7024 latency=[2 0 0]
taskserve/q3 values=[650 2600 7800 31200] instr=71143 gcs=3 rgc=7024 latency=[1 0 0]
taskserve/q5 values=[650 2600 7800 31200] instr=71143 gcs=3 rgc=7024 latency=[4 0 0]
taskserve/q97 values=[650 2600 7800 31200] instr=71143 gcs=3 rgc=7024 latency=[2 0 0]
`

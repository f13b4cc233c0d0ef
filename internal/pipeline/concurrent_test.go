package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// Concurrent-marking differential suite. -gc-concurrent changes *when*
// marking happens (sliced between task quanta instead of one pause) but
// must never change what the program computes or what survives: the
// scheduler is single-goroutine, so the interleaving is deterministic and
// the live heap after a run must match the stop-the-world oracle exactly —
// gc.LiveSignature is the address-free canonical form that makes "exactly"
// checkable on a mark/sweep heap whose layouts are history-dependent.
// Every configuration runs with the heap verifier on, so each concurrent
// cycle's final pause is followed by a typed re-walk of all roots.

// concOutcome is one configuration's observable behavior plus its
// canonical live heap.
type concOutcome struct {
	res       *TaskResult
	signature []code.Word
}

func concTaskRun(t *testing.T, w workloads.TaskWorkload, opts Options) concOutcome {
	t.Helper()
	opts.VerifyHeap = true
	res, err := RunTasks(w.Source, w.Entries, opts)
	if err != nil {
		t.Fatalf("conc=%v: %v", opts.GCConcurrent, err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("conc=%v: task %d = %d, want %d", opts.GCConcurrent, i, res.Values[i], e)
		}
	}
	g := res.Group
	return concOutcome{res: res, signature: g.Col.LiveSignature(g.Globals)}
}

// concCycles counts the collections finished by the incremental collector.
func concCycles(res *TaskResult) int {
	n := 0
	for i := range res.Telemetry.Records {
		if res.Telemetry.Records[i].Conc != nil {
			n++
		}
	}
	return n
}

// TestDifferentialConcurrentTasks pins concurrent-on ≡ stop-the-world over
// the whole multi-task corpus, across both suspension policies and the
// TLAB shape.
func TestDifferentialConcurrentTasks(t *testing.T) {
	shapes := []struct {
		name   string
		allocs bool
		tlab   int
	}{
		{"calls", false, 0},
		{"allocs", true, 0},
		{"tlab", false, 64},
	}
	sawCycle := false
	for _, w := range workloads.Tasking {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%s", w.Name, sh.name), func(t *testing.T) {
				opts := Options{
					Strategy:        gc.StratCompiled,
					HeapWords:       w.HeapWords,
					MarkSweep:       true,
					SuspendAtAllocs: sh.allocs,
					TLABWords:       sh.tlab,
				}
				off := concTaskRun(t, w, opts)
				opts.GCConcurrent = true
				opts.ConcTriggerPct = 40
				opts.ConcMarkBudget = 128
				on := concTaskRun(t, w, opts)

				if fmt.Sprint(on.res.Values) != fmt.Sprint(off.res.Values) ||
					joinOutputs(on.res) != joinOutputs(off.res) {
					t.Fatalf("concurrent marking changed observable behavior")
				}
				if fmt.Sprint(on.signature) != fmt.Sprint(off.signature) {
					t.Fatalf("live-heap signatures diverge (conc on %d words, off %d words)",
						len(on.signature), len(off.signature))
				}
				if concCycles(on.res) > 0 {
					sawCycle = true
				}
				if concCycles(off.res) != 0 {
					t.Fatalf("stop-the-world run recorded a concurrent cycle")
				}
			})
		}
	}
	if !sawCycle {
		t.Fatalf("no workload ever completed a concurrent cycle — the trigger never fired")
	}
}

// TestDifferentialConcurrentVM pins the single-task machine: same value and
// output with and without -gc-concurrent across the whole corpus, verifier
// on, for both typed strategies.
func TestDifferentialConcurrentVM(t *testing.T) {
	sawCycle := false
	for _, w := range workloads.All {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp} {
			t.Run(fmt.Sprintf("%s/%s", w.Name, strat), func(t *testing.T) {
				base := Options{
					Strategy:   strat,
					HeapWords:  w.HeapWords,
					MarkSweep:  true,
					VerifyHeap: true,
					MaxSteps:   50_000_000,
				}
				off, err := Run(w.Source, base)
				if err != nil {
					t.Fatal(err)
				}
				on := base
				on.GCConcurrent = true
				on.ConcTriggerPct = 40
				on.ConcMarkBudget = 64
				res, err := Run(w.Source, on)
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != w.Expect || res.Value != off.Value {
					t.Fatalf("value = %d, want %d (stw %d)", res.Value, w.Expect, off.Value)
				}
				if res.Output != off.Output {
					t.Fatalf("output diverges under concurrent marking")
				}
				if concCycles2(res) > 0 {
					sawCycle = true
				}
			})
		}
	}
	if !sawCycle {
		t.Fatalf("no workload ever completed a concurrent cycle on the VM path")
	}
}

func concCycles2(res *Result) int {
	n := 0
	for i := range res.Telemetry.Records {
		if res.Telemetry.Records[i].Conc != nil {
			n++
		}
	}
	return n
}

// TestConcurrentMutatorInterleavingFuzz randomizes the mutator/marker
// interleaving — quantum, slice budget, trigger watermark, suspension
// policy, TLABs — across 32 seeds and asserts every configuration matches
// the stop-the-world oracle: per-task values, outputs, and the end-of-run
// live-heap signature, with the verifier checking every cycle. Varying the
// quantum changes which stores run between which slices, so this sweeps
// barrier/slice orderings no fixed configuration pins.
func TestConcurrentMutatorInterleavingFuzz(t *testing.T) {
	oracles := map[string]concOutcome{}
	oracleFor := func(w workloads.TaskWorkload) concOutcome {
		if o, ok := oracles[w.Name]; ok {
			return o
		}
		o := concTaskRun(t, w, Options{
			Strategy:  gc.StratCompiled,
			HeapWords: w.HeapWords,
			MarkSweep: true,
		})
		oracles[w.Name] = o
		return o
	}
	const seeds = 32
	completed := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w := workloads.Tasking[rng.Intn(len(workloads.Tasking))]
		opts := Options{
			Strategy:        gc.StratCompiled,
			HeapWords:       w.HeapWords,
			MarkSweep:       true,
			GCConcurrent:    true,
			ConcTriggerPct:  10 + rng.Intn(80),
			ConcMarkBudget:  1 << (4 + rng.Intn(8)), // 16 .. 2048 words/slice
			SuspendAtAllocs: rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			opts.TLABWords = 32 << rng.Intn(2)
		}
		quantum := 3 + rng.Intn(200)
		t.Run(fmt.Sprintf("seed=%d/%s", seed, w.Name), func(t *testing.T) {
			opts.VerifyHeap = true
			group, entries, err := BuildTaskGroup(w.Source, w.Entries, opts)
			if err != nil {
				t.Fatal(err)
			}
			group.Quantum = quantum
			for _, e := range entries {
				group.Spawn(e)
			}
			if err := group.RunInit(); err != nil {
				t.Fatal(err)
			}
			if err := group.Run(); err != nil {
				t.Fatal(err)
			}
			want := oracleFor(w)
			for i, e := range w.Expect {
				tk := group.Tasks[i]
				if tk.Status == tasking.Faulted {
					t.Fatalf("task %d faulted: %v", i, tk.Err)
				}
				if got := code.DecodeInt(group.Prog.Repr, tk.Result); got != e {
					t.Fatalf("task %d = %d, want %d", i, got, e)
				}
			}
			sig := group.Col.LiveSignature(group.Globals)
			if fmt.Sprint(sig) != fmt.Sprint(want.signature) {
				t.Fatalf("seed %d (quantum %d, budget %d, pct %d): signature diverges from oracle",
					seed, quantum, opts.ConcMarkBudget, opts.ConcTriggerPct)
			}
			for i := range group.Col.Telem.Records {
				if group.Col.Telem.Records[i].Conc != nil {
					completed++
					break
				}
			}
		})
	}
	if completed == 0 {
		t.Fatalf("no fuzz seed ever completed a concurrent cycle")
	}
}

// TestConcurrentWatchdogAbort pins the abort rung: with a slice budget of
// one word and a one-slice watchdog, no real cycle can drain, so every
// attempt must abort and fall back to stop-the-world — counted in
// resilience telemetry — while the program still computes the right
// answers over a verified heap.
func TestConcurrentWatchdogAbort(t *testing.T) {
	w, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	opts := Options{
		Strategy:       gc.StratCompiled,
		HeapWords:      w.HeapWords,
		MarkSweep:      true,
		GCConcurrent:   true,
		ConcTriggerPct: 30,
		ConcMarkBudget: 1,
		ConcMaxSlices:  1,
	}
	out := concTaskRun(t, w, opts)
	rs := out.res.Telemetry.Resilience
	if rs.ConcAborts == 0 {
		t.Fatalf("expected watchdog aborts, got none (resilience: %+v)", rs)
	}
	if concCycles(out.res) != 0 {
		t.Fatalf("a cycle completed despite a 1-word x 1-slice budget")
	}
	if out.res.Stats.Collections == 0 {
		t.Fatalf("no stop-the-world fallback collection ran")
	}
	// The fallback must leave the same live heap as a plain run.
	plain := concTaskRun(t, w, Options{
		Strategy: gc.StratCompiled, HeapWords: w.HeapWords, MarkSweep: true})
	if fmt.Sprint(out.signature) != fmt.Sprint(plain.signature) {
		t.Fatalf("aborted-cycle run diverges from the stop-the-world heap")
	}
}

// TestConcurrentValidation pins the gating: concurrent marking requires
// mark/sweep, a tag-free typed strategy and no nursery, on both execution
// paths.
func TestConcurrentValidation(t *testing.T) {
	src := `let main () = 7`
	bad := []Options{
		{Strategy: gc.StratCompiled, GCConcurrent: true},                                    // copying
		{Strategy: gc.StratTagged, GCConcurrent: true},                                      // tagged (also not mark/sweep)
		{Strategy: gc.StratCompiled, MarkSweep: true, GCConcurrent: true, NurseryWords: 64}, // nursery
	}
	for i, o := range bad {
		if _, err := Run(src, o); err == nil {
			t.Errorf("case %d: Run accepted an invalid -gc-concurrent configuration", i)
		}
		if _, _, err := BuildTaskGroup(`let task_a () = 7`, []string{"task_a"}, o); err == nil {
			t.Errorf("case %d: BuildTaskGroup accepted an invalid -gc-concurrent configuration", i)
		}
	}
	if _, err := Run(src, Options{Strategy: gc.StratCompiled, MarkSweep: true, GCConcurrent: true}); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
}

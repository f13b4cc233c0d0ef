package pipeline

import (
	"fmt"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// Fast-path differential suite at the pipeline level: every corpus
// workload, every legal (strategy, discipline) pair, runs twice — once with the collection fast path and once with
// DisableGCFastPath (the uncached oracle) — under the post-collection
// heap verifier. Both runs must compute the workload's known result and
// retain exactly the same live words after every collection. The
// gc-package suite (fastpath_test.go) pins word-level heap identity on
// the task corpus; this one sweeps the whole single-task corpus and the
// non-compiled strategies, where the fast path must be a no-op.

func TestDifferentialFastPathCrossStrategy(t *testing.T) {
	for _, w := range workloads.All {
		for _, cfg := range diffConfigs() {
			name := fmt.Sprintf("%s/%v/ms=%v", w.Name, cfg.Strat, cfg.MS)
			t.Run(name, func(t *testing.T) {
				hw := w.HeapWords
				if cfg.MS {
					hw *= 2
				}
				var lives [][]int64
				for _, disable := range []bool{true, false} {
					res, err := Run(w.Source, Options{
						Strategy:          cfg.Strat,
						HeapWords:         hw,
						MarkSweep:         cfg.MS,
						DisableGCFastPath: disable,
						VerifyHeap:        true,
					})
					if err != nil {
						t.Fatalf("fast=%v: %v", !disable, err)
					}
					if res.Value != w.Expect {
						t.Fatalf("fast=%v: result %d, want %d", !disable, res.Value, w.Expect)
					}
					if disable && (res.GCStats.PlanHits != 0 || res.GCStats.KernelWords != 0) {
						t.Fatalf("oracle run used the fast path: %+v", res.GCStats)
					}
					lives = append(lives, res.Telemetry.LiveWordsPerCollection())
				}
				for i := 1; i < len(lives); i++ {
					if fmt.Sprint(lives[0]) != fmt.Sprint(lives[i]) {
						t.Fatalf("live words per collection diverge:\n  base %v\n  cfg%d %v", lives[0], i, lives[i])
					}
				}
			})
		}
	}
}

// TestFastPathSurvivesHeapGrow: the recovery ladder's growth rung swaps
// the heap out from under a warm plan cache mid-run. Cached plans hold
// compiler metadata only — no heap addresses — so collections after a
// Grow must keep producing the oracle's results. This is the regression
// guard for anyone tempted to memoize heap-dependent state in a plan.
func TestFastPathSurvivesHeapGrow(t *testing.T) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let greedy () = len (upto 4000)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + sum (upto 15))
let churn () = work 25 0
`
	entries := []string{"greedy", "churn"}
	for _, ms := range []bool{false, true} {
		t.Run(fmt.Sprintf("ms=%v", ms), func(t *testing.T) {
			var values [][]int64
			for _, disable := range []bool{true, false} {
				res, err := RunTasks(src, entries, Options{
					Strategy:          gc.StratCompiled,
					HeapWords:         1024,
					MarkSweep:         ms,
					GrowFactor:        2,
					MaxHeapWords:      1 << 17,
					DisableGCFastPath: disable,
					VerifyHeap:        true,
				})
				if err != nil {
					t.Fatalf("fast=%v: %v", !disable, err)
				}
				if res.Telemetry.Resilience.HeapGrowths == 0 {
					t.Fatalf("fast=%v: growth rung never fired", !disable)
				}
				if !disable && res.GCStats.PlanHits == 0 {
					t.Fatalf("plan cache never hit across growth: %+v", res.GCStats)
				}
				values = append(values, res.Values)
			}
			if fmt.Sprint(values[0]) != fmt.Sprint(values[1]) {
				t.Fatalf("results diverge across Grow: oracle %v fast %v", values[0], values[1])
			}
		})
	}
}

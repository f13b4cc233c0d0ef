package pipeline

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// Memory-pressure resilience tests: drive both heap disciplines to
// exhaustion at every rung of the recovery ladder (collect rescues, growth
// rescues, fault isolates), and require the surviving tasks' results and outputs to be bit-identical to
// a run that never saw the pressure. The post-collection heap verifier is
// on throughout: any rung that corrupts the heap panics the test.

// ladderSrc has one greedy task that retains a structure far larger than
// the base heap, and two modest churn tasks whose results must not depend
// on what happens to the greedy sibling.
const ladderSrc = `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let greedy () = len (upto 4000)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + sum (upto 15))
let mod_a () = work 25 0
let mod_b () = work 25 500
`

// ladderDisciplines mirrors diffConfigs' discipline split for the compiled
// strategy: the ladder is strategy-independent, so one strategy per
// discipline keeps the table focused on the heap behavior under test.
var ladderDisciplines = []struct {
	name string
	ms   bool
}{
	{"copying", false},
	{"marksweep", true},
}

func TestRecoveryLadderRungs(t *testing.T) {
	// Uncontended baseline: the modest tasks without the greedy sibling,
	// per discipline. Heap pressure from the greedy task must never leak
	// into these results.
	type baseline struct {
		values  []int64
		outputs []string
	}
	baselines := map[string]baseline{}
	for _, d := range ladderDisciplines {
		res, err := RunTasks(ladderSrc, []string{"mod_a", "mod_b"}, Options{
			Strategy:   gc.StratCompiled,
			HeapWords:  1024,
			MarkSweep:  d.ms,
			VerifyHeap: true,
		})
		if err != nil {
			t.Fatalf("baseline %s: %v", d.name, err)
		}
		baselines[d.name] = baseline{res.Values, res.Outputs}
	}

	rungs := []struct {
		name string
		opts func(o *Options)
		// wantFault is whether the greedy task must fault; when false it
		// must complete with the full list length.
		wantFault bool
		check     func(t *testing.T, res *TaskResult)
	}{
		{
			// Injected failures at a comfortable heap size: the emergency
			// collection alone rescues every allocation.
			name: "collect-rescues",
			opts: func(o *Options) {
				o.HeapWords = 1 << 15
				o.FailAllocEvery = 50
			},
			wantFault: false,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.InjectedOOMs == 0 || rs.EmergencyCollections == 0 {
					t.Fatalf("no injected pressure recorded: %+v", rs)
				}
				if rs.HeapGrowths != 0 {
					t.Fatalf("collect rung should not grow the heap: %+v", rs)
				}
			},
		},
		{
			// Genuine exhaustion with the growth rung enabled: the heap
			// doubles until the greedy structure fits.
			name: "grow-rescues",
			opts: func(o *Options) {
				o.GrowFactor = 2
				o.MaxHeapWords = 1 << 17
			},
			wantFault: false,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.HeapGrowths == 0 {
					t.Fatalf("growth rung never fired: %+v", rs)
				}
				if rs.TaskFaults != 0 {
					t.Fatalf("growth should have rescued the task: %+v", rs)
				}
			},
		},
		{
			// Exhaustion with no growth rung: the greedy task faults alone.
			name:      "fault-isolated",
			opts:      func(o *Options) {},
			wantFault: true,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.TaskFaults != 1 {
					t.Fatalf("want exactly one task fault: %+v", rs)
				}
			},
		},
		{
			// Growth rung present but its ceiling is below what the greedy
			// structure needs: the ladder is climbed and still exhausted.
			name: "ceiling-fault",
			opts: func(o *Options) {
				o.GrowFactor = 2
				o.MaxHeapWords = 2048
			},
			wantFault: true,
			check: func(t *testing.T, res *TaskResult) {
				rs := res.Telemetry.Resilience
				if rs.HeapGrowths == 0 || rs.TaskFaults != 1 {
					t.Fatalf("want growth then fault: %+v", rs)
				}
			},
		},
	}

	for _, d := range ladderDisciplines {
		for _, rung := range rungs {
			t.Run(fmt.Sprintf("%s/%s", d.name, rung.name), func(t *testing.T) {
				opts := Options{
					Strategy:   gc.StratCompiled,
					HeapWords:  1024,
					MarkSweep:  d.ms,
					VerifyHeap: true,
				}
				rung.opts(&opts)
				res, err := RunTasks(ladderSrc, []string{"greedy", "mod_a", "mod_b"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rung.wantFault {
					f := res.Faults[0]
					if f == nil {
						t.Fatalf("greedy task did not fault; values %v", res.Values)
					}
					if !strings.Contains(f.Error(), "heap exhausted") {
						t.Fatalf("fault does not carry the OOM cause: %v", f)
					}
					if len(f.Frames) == 0 {
						t.Fatalf("fault lacks a backtrace: %v", f)
					}
				} else if res.Faults[0] != nil {
					t.Fatalf("greedy task faulted: %v", res.Faults[0])
				} else if res.Values[0] != 4000 {
					t.Fatalf("greedy result %d, want 4000", res.Values[0])
				}
				// The surviving modest tasks must match the uncontended
				// baseline bit for bit.
				base := baselines[d.name]
				for i := 0; i < 2; i++ {
					if res.Faults[1+i] != nil {
						t.Fatalf("modest task %d faulted: %v", i, res.Faults[1+i])
					}
					if res.Values[1+i] != base.values[i] {
						t.Fatalf("modest task %d = %d, uncontended %d",
							i, res.Values[1+i], base.values[i])
					}
					if res.Outputs[1+i] != base.outputs[i] {
						t.Fatalf("modest task %d output diverges from uncontended run", i)
					}
				}
				rung.check(t, res)
			})
		}
	}
}

// tortureTaskSrc is a scaled-down churn/tree/poly mix: enough allocation
// variety to exercise every allocating opcode as a collection point, small
// enough that collecting before every allocation stays cheap.
const tortureTaskSrc = `
type tree = Leaf | Node of tree * int * tree
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec build n = if n = 0 then Leaf else Node (build (n - 1), n, build (n - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let churn () = sum (map (fun v -> v * 2) (upto 12)) + sum (upto 9)
let trees () = tsum (build 4) + tsum (build 3)
let boxes () = (let r = ref 5 in (r := !r + sum (upto 6); !r))
`

// TestTortureDifferentialTasking runs a compact multi-task workload with a
// collection before every allocation and the heap verifier on, across
// every legal strategy × discipline. Results must match a
// torture-free run — torture moves every collection point, so this
// exercises safe-point bookkeeping at every allocation site. The full
// corpus variant is TestTortureCorpusFull (tier2-torture).
func TestTortureDifferentialTasking(t *testing.T) {
	entries := []string{"churn", "trees", "boxes"}
	ref, err := RunTasks(tortureTaskSrc, entries, Options{
		Strategy: gc.StratCompiled, HeapWords: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range diffConfigs() {
		t.Run(fmt.Sprintf("%v/ms=%v", cfg.Strat, cfg.MS), func(t *testing.T) {
			res, err := RunTasks(tortureTaskSrc, entries, Options{
				Strategy:   cfg.Strat,
				HeapWords:  1024,
				MarkSweep:  cfg.MS,
				VerifyHeap: true,
				Torture:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range ref.Values {
				if res.Values[i] != e {
					t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
				}
			}
			if res.Telemetry.Resilience.TortureCollections == 0 {
				t.Fatal("torture mode never collected")
			}
		})
	}
}

// TestTortureDifferentialSingle tortures one compact single-program
// workload under every strategy with the verifier on.
func TestTortureDifferentialSingle(t *testing.T) {
	const src = tortureTaskSrc + `
let main () = churn () + trees () + boxes ()
`
	ref, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range diffConfigs() {
		t.Run(fmt.Sprintf("%v/ms=%v", cfg.Strat, cfg.MS), func(t *testing.T) {
			res, err := Run(src, Options{
				Strategy:   cfg.Strat,
				HeapWords:  1024,
				MarkSweep:  cfg.MS,
				VerifyHeap: true,
				Torture:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != ref.Value {
				t.Fatalf("result %d, want %d", res.Value, ref.Value)
			}
			if res.Telemetry.Resilience.TortureCollections == 0 {
				t.Fatal("torture mode never collected")
			}
		})
	}
}

// TestNoLivenessTortureTasks runs the E3 ablation (frame maps widened to
// every pointer slot) on the task corpus with a collection at every
// allocation and the verifier on. Widened maps name slots a frame has not
// written yet, so task frames must be zero-filled exactly like
// single-task ones; a stale slot would be traced as a pointer.
func TestNoLivenessTortureTasks(t *testing.T) {
	for _, w := range workloads.Tasking {
		t.Run(w.Name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			res, err := RunTasks(w.Source, w.Entries, Options{
				Strategy:        gc.StratCompiled,
				HeapWords:       4096,
				DisableLiveness: true,
				Torture:         true,
				VerifyHeap:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range w.Expect {
				if res.Faults[i] != nil || res.Values[i] != e {
					t.Fatalf("task %d = %d (fault %v), want %d", i, res.Values[i], res.Faults[i], e)
				}
			}
		})
	}
}

// TestTortureCorpusFull is the heavyweight stress pass: the entire task
// corpus under torture with the verifier on, every legal configuration.
// Several minutes of wall clock, so it only runs when GC_TORTURE_FULL is
// set — `make tier2-torture` does, under the race detector.
func TestTortureCorpusFull(t *testing.T) {
	if os.Getenv("GC_TORTURE_FULL") == "" {
		t.Skip("set GC_TORTURE_FULL=1 (or run make tier2-torture) for the full torture sweep")
	}
	for _, w := range workloads.Tasking {
		for _, cfg := range diffConfigs() {
			t.Run(fmt.Sprintf("%s/%v/ms=%v", w.Name, cfg.Strat, cfg.MS), func(t *testing.T) {
				res, err := RunTasks(w.Source, w.Entries, Options{
					Strategy:   cfg.Strat,
					HeapWords:  w.HeapWords,
					MarkSweep:  cfg.MS,
					VerifyHeap: true,
					Torture:    true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range w.Expect {
					if res.Values[i] != e {
						t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
					}
				}
				if res.Telemetry.Resilience.TortureCollections == 0 {
					t.Fatal("torture mode never collected")
				}
			})
		}
	}
}

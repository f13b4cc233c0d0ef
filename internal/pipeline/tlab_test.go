package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// TLAB differential suite. Per-task allocation buffers change *where*
// objects land but must never change *what* the program computes or what
// survives collection. Every configuration runs with the heap verifier on
// (which also checks that no TLAB survives into a collection), and each
// tlab-on run is compared against its tlab-off twin three ways:
//
//   - observable behavior: per-task values, outputs and faults;
//   - live structure: gc.LiveSignature, a canonical address-free
//     serialization of everything reachable from the globals — equal iff
//     the two heaps hold the same values with the same sharing, whatever
//     the tiling history did to addresses (the only comparison that can
//     work for mark/sweep, whose layouts are history-dependent);
//   - live layout (copying only): after a final tenure-all full
//     collection the active semispace is a trace-order-deterministic
//     image, so the snapshots must be bit-identical.

// tlabOutcome is one configuration's observable behavior plus its
// canonical live-heap forms.
type tlabOutcome struct {
	res       *TaskResult
	signature []code.Word
	snapshot  []code.Word // copying discipline only
}

// tlabTaskRun executes one tasking configuration, checks the expected
// per-task results, and canonicalizes the final live heap.
func tlabTaskRun(t *testing.T, w workloads.TaskWorkload, opts Options) tlabOutcome {
	t.Helper()
	opts.VerifyHeap = true
	res, err := RunTasks(w.Source, w.Entries, opts)
	if err != nil {
		t.Fatalf("tlab=%d: %v", opts.TLABWords, err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("tlab=%d: task %d = %d, want %d", opts.TLABWords, i, res.Values[i], e)
		}
	}
	g := res.Group
	if n := g.Heap.LiveTLABs(); n != 0 {
		t.Fatalf("tlab=%d: %d TLABs still live after the run", opts.TLABWords, n)
	}
	sig := g.Col.LiveSignature(g.Globals)
	// Tasks have returned, so globals are the only roots; a tenure-all full
	// collection leaves a layout determined by the trace alone.
	if opts.NurseryWords > 0 {
		g.Heap.SetTenureAll(true)
	}
	g.Col.CollectFull(nil, g.Globals)
	if opts.NurseryWords > 0 {
		g.Heap.SetTenureAll(false)
	}
	var snap []code.Word
	if !opts.MarkSweep {
		snap = g.Heap.ActiveSnapshot()
	}
	return tlabOutcome{res: res, signature: sig, snapshot: snap}
}

func joinOutputs(res *TaskResult) string { return strings.Join(res.Outputs, "\x00") }

// TestDifferentialTLABTasks pins tlab-on ≡ tlab-off over the whole
// multi-task corpus, across both disciplines and two runtime shapes
// (plain heap, generational nursery).
func TestDifferentialTLABTasks(t *testing.T) {
	shapes := []struct {
		name    string
		nursery int
	}{
		{"plain", 0},
		{"nursery", 256},
	}
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ms=%v", w.Name, ms), func(t *testing.T) {
				var sigs [][]code.Word
				for _, sh := range shapes {
					opts := Options{
						Strategy:     gc.StratCompiled,
						HeapWords:    w.HeapWords,
						MarkSweep:    ms,
						NurseryWords: sh.nursery,
					}
					off := tlabTaskRun(t, w, opts)
					opts.TLABWords = 64
					on := tlabTaskRun(t, w, opts)

					if fmt.Sprint(on.res.Values) != fmt.Sprint(off.res.Values) ||
						joinOutputs(on.res) != joinOutputs(off.res) {
						t.Fatalf("%s: TLABs changed observable behavior", sh.name)
					}
					if fmt.Sprint(on.signature) != fmt.Sprint(off.signature) {
						t.Fatalf("%s: live-heap signatures diverge (tlab on %d words, off %d words)",
							sh.name, len(on.signature), len(off.signature))
					}
					if !ms && fmt.Sprint(on.snapshot) != fmt.Sprint(off.snapshot) {
						t.Fatalf("%s: post-collection snapshots diverge: %d vs %d words",
							sh.name, len(on.snapshot), len(off.snapshot))
					}
					// The comparison only means something if the buffers ran.
					hs := on.res.Heap
					if hs.TLABAllocs == 0 || hs.TLABRefills == 0 {
						t.Fatalf("%s: TLAB machinery never engaged: %d fast allocs, %d refills",
							sh.name, hs.TLABAllocs, hs.TLABRefills)
					}
					if hs.TLABRefillWords != hs.TLABAllocWords+hs.TLABWasteWords+hs.TLABReturnedWords {
						t.Fatalf("%s: accounting: refill %d != alloc %d + waste %d + returned %d", sh.name,
							hs.TLABRefillWords, hs.TLABAllocWords, hs.TLABWasteWords, hs.TLABReturnedWords)
					}
					sigs = append(sigs, off.signature)
				}
				// The signature is address-free, so every shape of the same
				// program must converge on the same one.
				for i := 1; i < len(sigs); i++ {
					if fmt.Sprint(sigs[i]) != fmt.Sprint(sigs[0]) {
						t.Fatalf("shape %d's live signature diverges from shape 0's", i)
					}
				}
			})
		}
	}
}

// TestDifferentialTLABStrategies sweeps the strategies (including tagged,
// whose signature walks headers instead of types) on one churn workload.
func TestDifferentialTLABStrategies(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			opts := Options{Strategy: strat, HeapWords: w.HeapWords}
			off := tlabTaskRun(t, w, opts)
			opts.TLABWords = 64
			on := tlabTaskRun(t, w, opts)
			if fmt.Sprint(on.res.Values) != fmt.Sprint(off.res.Values) {
				t.Fatal("TLABs changed task results")
			}
			if fmt.Sprint(on.signature) != fmt.Sprint(off.signature) {
				t.Fatal("live-heap signatures diverge")
			}
			if fmt.Sprint(on.snapshot) != fmt.Sprint(off.snapshot) {
				t.Fatal("post-collection snapshots diverge")
			}
		})
	}
}

// TestTLABSharedAcquisitionAmortized pins the point of the whole exercise:
// with buffers on, shared-heap acquisitions (slow-path allocations plus
// refill carves, counted by Stats.SharedAllocs) are amortized O(1/chunk)
// per allocation instead of one per allocation.
func TestTLABSharedAcquisitionAmortized(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	off, err := RunTasks(w.Source, w.Entries, Options{
		Strategy: gc.StratCompiled, HeapWords: w.HeapWords})
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunTasks(w.Source, w.Entries, Options{
		Strategy: gc.StratCompiled, HeapWords: w.HeapWords, TLABWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Without buffers every allocation is a shared acquisition (failed
	// attempts that suspended for collection acquire it too, so ≥).
	if off.Heap.SharedAllocs < off.Heap.Allocations {
		t.Fatalf("baseline: %d shared acquisitions for %d allocations",
			off.Heap.SharedAllocs, off.Heap.Allocations)
	}
	// With buffers the ratio must collapse; 4x is far looser than the
	// chunk-size amortization actually delivers, so it cannot flake.
	if on.Heap.SharedAllocs*4 >= on.Heap.Allocations {
		t.Fatalf("TLABs did not amortize: %d shared acquisitions for %d allocations",
			on.Heap.SharedAllocs, on.Heap.Allocations)
	}
	var perTask int64
	for _, ts := range on.TLABs {
		perTask += ts.FastAllocs + ts.SlowAllocs
	}
	if perTask != on.Heap.Allocations {
		t.Fatalf("per-task accounting: %d fast+slow across tasks, heap saw %d allocations",
			perTask, on.Heap.Allocations)
	}
}

// TestTLABTaskInterleavingFuzz randomizes the scheduling surface — quantum,
// suspension policy, discipline, nursery, chunk size — and checks that
// every interleaving computes the reference results with exact buffer
// accounting. The heap verifier runs throughout, so a buffer surviving
// into a collection or tiling corruption fails loudly.
func TestTLABTaskInterleavingFuzz(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	buildOpts := Options{Strategy: gc.StratCompiled}
	buildOpts.DisableGCWordElision = true
	prog, _, err := Build(w.Source, buildOpts)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]int, len(w.Entries))
	for i, name := range w.Entries {
		if entries[i] = prog.FuncByName(name); entries[i] < 0 {
			t.Fatalf("entry %s not found", name)
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ms := rng.Intn(2) == 0
		nursery := rng.Intn(2) == 0
		chunk := []int{16, 32, 64, 96}[rng.Intn(4)]
		quantum := 1 + rng.Intn(23)
		name := fmt.Sprintf("seed=%d/ms=%v/nursery=%v/chunk=%d/q=%d", seed, ms, nursery, chunk, quantum)
		t.Run(name, func(t *testing.T) {
			var h *heap.Heap
			if ms {
				h = heap.NewMarkSweep(prog.Repr, 2*w.HeapWords)
			} else {
				h = heap.New(prog.Repr, w.HeapWords)
			}
			if nursery {
				h.EnableNursery(256, 2)
			}
			g, err := tasking.NewGroupWith(prog, h, gc.StratCompiled, entries)
			if err != nil {
				t.Fatal(err)
			}
			g.TLABWords = chunk
			g.Quantum = quantum
			if rng.Intn(2) == 0 {
				g.Policy = tasking.SuspendAtAllocs
			}
			g.Col.Verify = true
			h.SetVerify(true)
			if err := g.RunInit(); err != nil {
				t.Fatal(err)
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			for i, e := range w.Expect {
				if got := code.DecodeInt(prog.Repr, g.Tasks[i].Result); got != e {
					t.Fatalf("task %d = %d, want %d", i, got, e)
				}
			}
			if g.Heap.LiveTLABs() != 0 {
				t.Fatalf("%d TLABs live after the run", g.Heap.LiveTLABs())
			}
			hs := g.Heap.Stats
			if hs.TLABRefillWords != hs.TLABAllocWords+hs.TLABWasteWords+hs.TLABReturnedWords {
				t.Fatalf("accounting: refill %d != alloc %d + waste %d + returned %d",
					hs.TLABRefillWords, hs.TLABAllocWords, hs.TLABWasteWords, hs.TLABReturnedWords)
			}
			var perTask tasking.TLABStats
			for _, task := range g.Tasks {
				perTask.Refills += task.TLAB.Refills
				perTask.RefillWords += task.TLAB.RefillWords
				perTask.WasteWords += task.TLAB.WasteWords
				perTask.ReturnedWords += task.TLAB.ReturnedWords
			}
			// Init-task refills are heap-side only, so per-task sums bound the
			// heap counters from below and waste decomposes exactly.
			if perTask.Refills > hs.TLABRefills || perTask.RefillWords > hs.TLABRefillWords {
				t.Fatalf("per-task refills %+v exceed heap stats %d/%d",
					perTask, hs.TLABRefills, hs.TLABRefillWords)
			}
			if perTask.WasteWords+perTask.ReturnedWords > hs.TLABWasteWords+hs.TLABReturnedWords {
				t.Fatalf("per-task waste %+v exceeds heap stats %d/%d",
					perTask, hs.TLABWasteWords, hs.TLABReturnedWords)
			}
		})
	}
}

// hogSrc grows a live list until the heap cannot hold it: the OOM-ladder
// antagonist. The sibling task must complete untouched (fault isolation).
const hogSrc = `
let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let hog () = len (build 2000 [])
let ok () = 7
`

// TestTLABOOMLadderFault drives a TLAB-allocating task through the whole
// recovery ladder to the fault rung and checks the structured fault: OOM
// kind, the pending allocation's field count, and a usable backtrace.
func TestTLABOOMLadderFault(t *testing.T) {
	// Nursery variants are excluded: a live set that outgrows the old
	// region overflows the evacuation itself before the ladder can fault,
	// with or without TLABs — a pre-existing capacity limitation of the
	// generational heap, orthogonal to allocation buffering. Nursery OOM
	// recovery under TLABs is covered by TestTLABRescueLadderStaysMinor.
	for _, ms := range []bool{false, true} {
		t.Run(fmt.Sprintf("ms=%v", ms), func(t *testing.T) {
			res, err := RunTasks(hogSrc, []string{"hog", "ok"}, Options{
				Strategy:   gc.StratCompiled,
				HeapWords:  512,
				MarkSweep:  ms,
				TLABWords:  32,
				VerifyHeap: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			f := res.Faults[0]
			if f == nil {
				t.Fatal("hog task did not fault")
			}
			if f.Kind != tasking.FaultOOM {
				t.Fatalf("fault kind = %v, want FaultOOM", f.Kind)
			}
			if f.AllocSize != 2 {
				t.Fatalf("fault AllocSize = %d, want the 2-field cons", f.AllocSize)
			}
			if len(f.Frames) == 0 || !strings.Contains(f.Error(), "build") {
				t.Fatalf("fault backtrace unusable: %v", f)
			}
			if res.Faults[1] != nil || res.Values[1] != 7 {
				t.Fatalf("sibling not isolated: fault=%v value=%d", res.Faults[1], res.Values[1])
			}
		})
	}
}

// TestTLABRefillFaultInjection targets injection at the refill path:
// -fail-refills makes FailAllocEvery count carve attempts only, every
// injected failure walks the recovery ladder, and the run still completes
// with the reference results.
func TestTLABRefillFaultInjection(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:        gc.StratCompiled,
		HeapWords:       w.HeapWords,
		TLABWords:       64,
		FailAllocEvery:  2,
		FailRefillsOnly: true,
		VerifyHeap:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
	injected := res.Telemetry.Resilience.InjectedOOMs
	if injected == 0 {
		t.Fatal("no refill failures injected")
	}
	// The plan must have been consulted only at refill attempts: with ~64
	// words per carve the consult count is a small fraction of the
	// allocation count, nowhere near one per allocation.
	consults := res.Group.Col.Faults.Allocs()
	if consults == 0 || consults*4 >= res.Heap.Allocations {
		t.Fatalf("RefillOnly consulted the plan %d times for %d allocations",
			consults, res.Heap.Allocations)
	}
}

// TestTLABRefillOnlyWithoutTLABs pins the gate: a refill-only plan on a
// TLAB-less run never fires, even at FailAllocEvery=1.
func TestTLABRefillOnlyWithoutTLABs(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:        gc.StratCompiled,
		HeapWords:       w.HeapWords,
		FailAllocEvery:  1,
		FailRefillsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Resilience.InjectedOOMs != 0 {
		t.Fatalf("refill-only plan injected %d failures with TLABs off",
			res.Telemetry.Resilience.InjectedOOMs)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
}

// TestTLABRescueLadderStaysMinor is the regression test for the rescue
// check: a nursery-exhaustion suspend on a TLAB heap must be judged
// against the TLAB retry path (NeedTLAB), which a minor collection
// satisfies. A rescue that judged the retry against the shared heap alone
// would climb to majors, tenure-alls or growth for garbage the nursery
// recycles for free.
func TestTLABRescueLadderStaysMinor(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    1 << 15,
		NurseryWords: 256,
		TLABWords:    64,
		VerifyHeap:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Expect {
		if res.Values[i] != e {
			t.Fatalf("task %d = %d, want %d", i, res.Values[i], e)
		}
	}
	minors := 0
	for _, rec := range res.Telemetry.Records {
		if rec.Kind != "minor" {
			t.Fatalf("collection %d escalated to %q; the TLAB-aware rescue should stop at minors",
				rec.Seq, rec.Kind)
		}
		minors++
	}
	if minors == 0 {
		t.Fatal("workload never triggered a collection")
	}
	if g := res.Telemetry.Resilience.HeapGrowths; g != 0 {
		t.Fatalf("rescue grew the heap %d times for nursery-recyclable garbage", g)
	}
}

// TestTLABTortureCompletes crosses the heaviest fault schedule with TLABs:
// torture suspends every allocation for a collection, so every single
// allocation retires and re-carves its buffer. Both disciplines must
// survive with reference results under the verifier.
func TestTLABTortureCompletes(t *testing.T) {
	w, _ := workloads.TaskByName("taskdeep")
	for _, ms := range []bool{false, true} {
		res, err := RunTasks(w.Source, w.Entries, Options{
			Strategy:   gc.StratCompiled,
			HeapWords:  w.HeapWords,
			MarkSweep:  ms,
			TLABWords:  32,
			Torture:    true,
			VerifyHeap: true,
		})
		if err != nil {
			t.Fatalf("ms=%v: %v", ms, err)
		}
		for i, e := range w.Expect {
			if res.Values[i] != e {
				t.Fatalf("ms=%v: task %d = %d, want %d", ms, i, res.Values[i], e)
			}
		}
		if res.Telemetry.Resilience.TortureCollections == 0 {
			t.Fatalf("ms=%v: torture never collected", ms)
		}
	}
}

// TestTLABDisabledLeavesTelemetryClean pins the -tlab 0 escape hatch: no
// TLAB blocks in the records, no TLAB columns in the table, zero TLAB
// heap counters — the exact pre-TLAB surface the goldens rely on.
func TestTLABDisabledLeavesTelemetryClean(t *testing.T) {
	w, _ := workloads.TaskByName("taskchurn")
	res, err := RunTasks(w.Source, w.Entries, Options{
		Strategy:  gc.StratCompiled,
		HeapWords: w.HeapWords,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Telemetry.Records {
		if rec.TLAB != nil {
			t.Fatalf("TLABs off: record %d carries a TLAB block", rec.Seq)
		}
	}
	hs := res.Heap
	if hs.TLABAllocs+hs.TLABRefills+hs.TLABWasteWords+hs.TLABReturnedWords != 0 {
		t.Fatalf("TLABs off: heap recorded TLAB activity: %+v", hs)
	}
	// Without buffers every allocation acquires the shared heap directly
	// (failed attempts that suspended for collection acquire it too).
	if hs.SharedAllocs < hs.Allocations {
		t.Fatalf("TLABs off: %d shared acquisitions, %d allocations", hs.SharedAllocs, hs.Allocations)
	}
	if table := TelemetryTable(res.Telemetry, TelemetryOptions{OmitTiming: true}); strings.Contains(table, "tlab") {
		t.Fatalf("TLABs off: table grew TLAB output:\n%s", table)
	}
}

package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/workloads"
)

// The heap-liveness differential projection suite. Liveness-guided
// tracing (-gc-heap-liveness) may retain strictly less than
// full-structure tracing, so the usual bit-identical live-signature pin
// does not apply. Instead the suite proves the projection property
// directly: the pruned retained set must be the full retained set with
// some subtrees replaced by the poison word — never a different value,
// never extra structure — and the mutator-visible behavior (every value,
// every output, every fault) must be bit-identical, with the poison debug
// mode armed so any wrong spine verdict faults on load instead of
// silently reading garbage.

// ---------------------------------------------------------------------------
// Signature parsing: gc.RootSignature emits a flat (tag, value) stream —
// 0=immediate, 1=back-edge, 2=first visit followed by that many fields.
// The projection check needs the tree, with first-visit objects indexed
// in stream order (the signer's numbering).
// ---------------------------------------------------------------------------

type sigNode struct {
	kind int // 0 immediate, 1 back-edge, 2 object
	val  code.Word
	id   int // object first-visit index (kind 2)
	kids []*sigNode
}

func parseSig(t *testing.T, s []code.Word) (roots, objs []*sigNode) {
	t.Helper()
	i := 0
	var parse func() *sigNode
	parse = func() *sigNode {
		if i+1 >= len(s) {
			t.Fatalf("signature truncated at word %d of %d", i, len(s))
		}
		tag, val := s[i], s[i+1]
		i += 2
		switch tag {
		case 0:
			return &sigNode{kind: 0, val: val}
		case 1:
			return &sigNode{kind: 1, val: val}
		case 2:
			n := &sigNode{kind: 2, id: len(objs)}
			objs = append(objs, n)
			for k := 0; k < int(val); k++ {
				n.kids = append(n.kids, parse())
			}
			return n
		}
		t.Fatalf("signature word %d: unknown tag %d", i-2, tag)
		return nil
	}
	for i < len(s) {
		roots = append(roots, parse())
	}
	return roots, objs
}

// projChecker verifies that the pruned signature is a projection of the
// full one: equal everywhere except that a pruned immediate (the poison
// word) in the pruned stream may stand in for ANY subtree of the full
// stream. Back-edge indices are renamed through idMap because skipping
// subtrees renumbers first visits.
type projChecker struct {
	offObjs []*sigNode
	idMap   map[int]int // pruned obj id -> full obj id
	pruned  int         // poison stand-ins encountered
}

func (p *projChecker) compare(on, off *sigNode) error {
	if on.kind == 0 && on.val == code.PrunedWord {
		// The spine kernel declared this field's structure dead; whatever
		// the full trace retained under it is exactly what pruning saves.
		p.pruned++
		return nil
	}
	switch on.kind {
	case 0:
		if off.kind != 0 || off.val != on.val {
			return fmt.Errorf("pruned run has immediate %#x where full run has kind %d (%#x)", on.val, off.kind, off.val)
		}
		return nil
	case 1:
		// The pruned walk saw this object before; the full walk, visiting a
		// superset in the same order, must have too.
		want, ok := p.idMap[int(on.val)]
		if !ok {
			return fmt.Errorf("pruned back-edge to object %d never mapped", on.val)
		}
		switch off.kind {
		case 1:
			if want != int(off.val) {
				return fmt.Errorf("back-edge mismatch: pruned obj %d maps to full obj %d, stream says %d", on.val, want, off.val)
			}
		case 2:
			return fmt.Errorf("pruned run back-references object %d the full run is first-visiting", on.val)
		default:
			return fmt.Errorf("pruned back-edge where full run has an immediate")
		}
		return nil
	default: // first visit
		var offObj *sigNode
		switch off.kind {
		case 2:
			offObj = off
		case 1:
			// The full walk already serialized this object inside a subtree
			// the pruned walk skipped; resolve the back-edge and compare
			// against the recorded structure.
			offObj = p.offObjs[int(off.val)]
		default:
			return fmt.Errorf("pruned run retains an object where full run has immediate %#x", off.val)
		}
		p.idMap[on.id] = offObj.id
		if len(on.kids) != len(offObj.kids) {
			return fmt.Errorf("object size mismatch: pruned %d fields, full %d", len(on.kids), len(offObj.kids))
		}
		for k := range on.kids {
			if err := p.compare(on.kids[k], offObj.kids[k]); err != nil {
				return err
			}
		}
		return nil
	}
}

// collectAndSign drives a freshly built task group to its first pending
// collection, collects, and returns the canonical signature of everything
// the collection retained (globals plus every task root).
func collectAndSign(t *testing.T, w workloads.TaskWorkload, opts Options) []code.Word {
	t.Helper()
	group, entries, err := BuildTaskGroup(w.Source, w.Entries, opts)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, e := range entries {
		group.Spawn(e)
	}
	if err := group.RunInit(); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	roots, pending, err := group.RunUntilCollection()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !pending {
		t.Fatalf("%s: finished without collecting", w.Name)
	}
	group.Col.Collect(roots, group.Globals)
	return group.Col.RootSignature(roots, group.Globals)
}

// TestHeapLivenessRetainedSubset pins the projection property on every
// corpus workload: two identical groups run to the same first pending
// collection (schedules cannot have diverged — no collection has happened
// yet), one collects with full-structure tracing and one with
// liveness-guided pruning, and the pruned retained set must be the full
// retained set with zero or more subtrees projected away behind the
// poison word. taskspine must actually project something.
func TestHeapLivenessRetainedSubset(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ms=%v", w.Name, ms), func(t *testing.T) {
				opts := Options{
					Strategy:  gc.StratCompiled,
					HeapWords: w.HeapWords,
					MarkSweep: ms,
				}
				full := collectAndSign(t, w, opts)
				opts.GCHeapLiveness = true
				opts.PoisonPruned = true
				pruned := collectAndSign(t, w, opts)

				onRoots, _ := parseSig(t, pruned)
				offRoots, offObjs := parseSig(t, full)
				if len(onRoots) != len(offRoots) {
					t.Fatalf("root count diverged: %d pruned vs %d full — the runs were not aligned", len(onRoots), len(offRoots))
				}
				p := &projChecker{offObjs: offObjs, idMap: map[int]int{}}
				for i := range onRoots {
					if err := p.compare(onRoots[i], offRoots[i]); err != nil {
						t.Fatalf("root %d: %v", i, err)
					}
				}
				if w.Name == "taskspine" && p.pruned == 0 {
					t.Error("taskspine: projection found no pruned subtrees — the spine verdicts never reached a kernel")
				}
				if len(pruned) > len(full) {
					t.Errorf("pruned signature (%d words) larger than full (%d words)", len(pruned), len(full))
				}
			})
		}
	}
}

// TestHeapLivenessCorpusIdentical runs every corpus workload with pruning
// off and on (poison armed) across both disciplines and requires
// bit-identical mutator-visible behavior. The torture rows additionally
// collect before every allocation, which keeps the two runs' collection
// schedules aligned end-to-end, so the per-collection live-word sequences
// are comparable: pruning must never retain more at any collection, and
// on taskspine it must retain strictly less in total.
func TestHeapLivenessCorpusIdentical(t *testing.T) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			for _, torture := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/ms=%v/torture=%v", w.Name, ms, torture), func(t *testing.T) {
					opts := Options{
						Strategy:   gc.StratCompiled,
						HeapWords:  w.HeapWords,
						MarkSweep:  ms,
						Torture:    torture,
						VerifyHeap: torture, // verified stress on the torture rows
					}
					off, err := RunTasks(w.Source, w.Entries, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.GCHeapLiveness = true
					opts.PoisonPruned = true
					on, err := RunTasks(w.Source, w.Entries, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range w.Entries {
						if off.Values[i] != on.Values[i] || off.Outputs[i] != on.Outputs[i] {
							t.Errorf("task %d diverged: %d/%q full vs %d/%q pruned",
								i, off.Values[i], off.Outputs[i], on.Values[i], on.Outputs[i])
						}
						if (off.Faults[i] == nil) != (on.Faults[i] == nil) {
							t.Errorf("task %d fault divergence: full %v, pruned %v", i, off.Faults[i], on.Faults[i])
						}
						if off.Values[i] != w.Expect[i] {
							t.Errorf("task %d = %d, want %d", i, off.Values[i], w.Expect[i])
						}
					}
					if !torture {
						return
					}
					liveOff := off.Telemetry.LiveWordsPerCollection()
					liveOn := on.Telemetry.LiveWordsPerCollection()
					if len(liveOff) != len(liveOn) {
						t.Fatalf("torture schedules diverged: %d vs %d collections", len(liveOff), len(liveOn))
					}
					var sumOff, sumOn int64
					for i := range liveOff {
						if liveOn[i] > liveOff[i] {
							t.Fatalf("collection %d: pruning retained %d words, full tracing only %d", i, liveOn[i], liveOff[i])
						}
						sumOff += liveOff[i]
						sumOn += liveOn[i]
					}
					if w.Name == "taskspine" && sumOn >= sumOff {
						t.Errorf("taskspine under torture: pruning retained %d total words, full tracing %d — nothing was pruned", sumOn, sumOff)
					}
				})
			}
		}
	}
}

// TestPoisonTrapsOnPrunedLoad proves the poison debug mode makes spine
// verdicts falsifiable: a program whose field genuinely holds the poison
// word's integer value faults on the load in both runtimes when the mode
// is armed, and computes normally when it is not. (A real wrong verdict
// produces exactly this load; the suite cannot make the analysis emit a
// wrong verdict, so it plants the word the honest way.)
func TestPoisonTrapsOnPrunedLoad(t *testing.T) {
	prog, _, err := Build("let main () = 0", Options{Strategy: gc.StratCompiled})
	if err != nil {
		t.Fatal(err)
	}
	poison := code.DecodeInt(prog.Repr, code.PrunedWord)
	lit := fmt.Sprint(poison)
	if poison < 0 {
		lit = fmt.Sprintf("(0 - %d)", -poison)
	}
	src := fmt.Sprintf(`
let probe () = (let p = (%s, 1) in (match p with | (a, b) -> a + b))
let main () = probe ()
`, lit)

	// Unarmed: the value is just an integer.
	res, err := Run(src, Options{Strategy: gc.StratCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != poison+1 {
		t.Fatalf("unarmed run = %d, want %d", res.Value, poison+1)
	}

	// Armed, single-program runtime: the load must error.
	if _, err := Run(src, Options{Strategy: gc.StratCompiled, PoisonPruned: true}); err == nil {
		t.Error("vm: armed poison mode did not trap on the pruned-word load")
	} else if !strings.Contains(err.Error(), "poison") {
		t.Errorf("vm: trap is not a poison diagnostic: %v", err)
	}

	// Armed, tasking runtime: the task faults, siblings unaffected.
	tres, err := RunTasks(src, []string{"probe"}, Options{Strategy: gc.StratCompiled, PoisonPruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Faults[0] == nil {
		t.Error("tasking: armed poison mode did not fault the loading task")
	} else if !strings.Contains(tres.Faults[0].Error(), "poison") {
		t.Errorf("tasking: fault is not a poison diagnostic: %v", tres.Faults[0])
	}
}

// TestHeapLivenessModeMatrixFuzz crosses -gc-heap-liveness with the other
// runtime modes — disciplines, nursery, shards, TLABs, concurrent
// marking, allocation-failure injection — over 32
// seeded configurations. Every configuration must behave bit-identically
// to its pruning-off twin (poison armed), and every collection under
// pruning must be accounted for: either it pruned, or the refusal was
// counted under a degrade reason. Out-of-envelope combinations degrade;
// they never diverge and never go unreported.
func TestHeapLivenessModeMatrixFuzz(t *testing.T) {
	for seed := 0; seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			w := workloads.Tasking[seed%len(workloads.Tasking)]
			opts := Options{
				Strategy:  gc.StratCompiled,
				HeapWords: w.HeapWords,
				MarkSweep: rng.Intn(2) == 1,
			}
			switch rng.Intn(3) {
			case 1:
				opts.NurseryWords = 256
			case 2:
				opts.NurseryWords = 512
			}
			if opts.NurseryWords > 0 && rng.Intn(2) == 1 {
				opts.Shards = 2 << rng.Intn(2) // 2 or 4
			}
			if opts.MarkSweep && opts.NurseryWords == 0 && rng.Intn(2) == 1 {
				opts.GCConcurrent = true
			}
			if !opts.GCConcurrent {
				// Unused draw: it keeps every seed's later knob draws, and so
				// its configuration, stable.
				rng.Intn(3)
			}
			if rng.Intn(2) == 1 {
				opts.TLABWords = 64
			}
			if rng.Intn(4) == 0 {
				opts.FailAllocEvery = 50
			}

			off, err := RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				t.Fatalf("off [%+v]: %v", opts, err)
			}
			opts.GCHeapLiveness = true
			opts.PoisonPruned = true
			on, err := RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				t.Fatalf("on [%+v]: %v", opts, err)
			}
			for i := range w.Entries {
				if off.Values[i] != on.Values[i] || off.Outputs[i] != on.Outputs[i] {
					t.Errorf("task %d diverged: %d/%q full vs %d/%q pruned",
						i, off.Values[i], off.Outputs[i], on.Values[i], on.Outputs[i])
				}
				offF, onF := off.Faults[i], on.Faults[i]
				if (offF == nil) != (onF == nil) {
					t.Fatalf("task %d fault divergence: full %v, pruned %v", i, offF, onF)
				}
				if offF != nil && offF.Kind != onF.Kind {
					t.Errorf("task %d fault kind diverged: %v vs %v", i, offF.Kind, onF.Kind)
				}
			}
			lv := on.Liveness
			accounted := lv.PruneCollections + lv.DegradedStrategy + lv.DegradedFastPath +
				lv.DegradedShard + lv.DegradedConcurrent
			if on.GCStats.Collections > 0 && accounted == 0 {
				t.Errorf("pruning on, %d collections, but no collection pruned and no degrade was counted: %+v",
					on.GCStats.Collections, lv)
			}
			if opts.GCConcurrent && lv.DegradedConcurrent == 0 {
				for _, rec := range on.Telemetry.Records {
					if rec.Conc != nil {
						t.Errorf("a concurrent cycle finished but no concurrent degrade was counted: %+v", lv)
						break
					}
				}
			}
		})
	}
}

package gc

import "tagfree/internal/code"

// Liveness-guided tracing: the runtime half of the compile-side
// heap-liveness analysis (internal/compile/gcanal/heapliveness.go).
//
// The analysis proves, per frame slot of a recursive datatype at each GC
// point, that the program can only ever walk the structure's *spine* from
// here on — length/append-style consumers whose element fields are
// provably dead. Codegen threads that verdict into the frame-trace
// metadata (code.SlotEntry.Spine), the plan builder attaches a pruning
// kernel (classifyPrune) to verdict-carrying slots, and the collector
// replaces dead element fields with the code.PrunedWord sentinel instead
// of retaining them.
//
// Soundness rests on two-phase root tracing, not alias analysis. A slot's
// verdict speaks only for its own access path: the same list may be
// reachable in full through another slot, another task, a global, or a
// remembered-set entry. So a pruning collection runs in two phases:
//
//  1. Every full-verdict root (and the globals, and on a minor the
//     remembered set) traces normally; spine-verdict slots are *deferred*
//     onto pruneQ instead of traced.
//  2. drainPrune runs the deferred slots through their pruning kernels.
//     The walk claims objects through the same VisitObject the full trace
//     used, so it stops dead at anything a live path already reached —
//     sentinels land only in objects reachable *exclusively* through
//     spine-only paths, where every verdict agrees the elements are dead.
//
// The sentinel (0xDEAD) is unboxed under both representations, so every
// downstream consumer — the verifier's typed re-walk, the generational
// write barrier, remembered-set refiltering — treats a pruned field as an
// ordinary scalar. The pipeline's poison mode additionally traps any
// compiled-code load of the sentinel, which is what makes the verdicts
// falsifiable in tests.
//
// Pruning engages per collection only inside a degrade envelope, because
// the two-phase ordering argument needs a single ordered trace over a
// quiescent world:
//
//   - compiled strategy with the fast path on (the verdicts live in frame
//     plans; interp/appel/tagged have none),
//   - no shard overlap (other shards' mutators hold unscanned live paths),
//   - no concurrent mark cycle (snapshot roots predate the verdicts).
//
// Ineligible collections trace everything in full — pruning degrades to
// exact correctness, never the other way — and each refusal is counted.

// LivenessStats counts liveness-guided pruning activity.
type LivenessStats struct {
	// PruneCollections counts collections that engaged pruning.
	PruneCollections int64 `json:"prune_collections,omitempty"`
	// SpineRoots counts deferred spine-verdict roots drained by pruning
	// kernels.
	SpineRoots int64 `json:"spine_roots,omitempty"`
	// Degraded* count collections that wanted pruning (HeapLiveness set)
	// but refused it, by reason. A collection counts at most one reason,
	// checked in the order listed.
	DegradedStrategy   int64 `json:"degraded_strategy,omitempty"`   // not the compiled strategy
	DegradedFastPath   int64 `json:"degraded_fastpath,omitempty"`   // DisableFastPath set
	DegradedShard      int64 `json:"degraded_shard,omitempty"`      // single-shard minor with mutators running
	DegradedConcurrent int64 `json:"degraded_concurrent,omitempty"` // concurrent mark cycle (counted at ConcStart)
}

// pruneItem is one deferred spine-verdict root: the slot's location and
// the pruning kernel to drain it with.
type pruneItem struct {
	stack []code.Word
	idx   int
	g     TypeGC
	sk    *spineKernel
}

// beginPrune decides whether this collection may prune, counting the
// degrade reason when it may not. shard marks a single-shard minor.
func (c *Collector) beginPrune(shard bool) {
	c.pruneOn = false
	if !c.HeapLiveness {
		return
	}
	switch {
	case c.Strat != StratCompiled:
		c.Liveness.DegradedStrategy++
	case c.DisableFastPath:
		c.Liveness.DegradedFastPath++
	case shard:
		c.Liveness.DegradedShard++
	default:
		c.pruneOn = true
		c.Liveness.PruneCollections++
	}
}

// endPrune drains the deferred spine-verdict roots and disarms pruning.
// It must run after every full root of the collection has been traced
// (including the remembered set on a minor): the drain's soundness is the
// two-phase ordering.
func (c *Collector) endPrune() {
	if !c.pruneOn {
		return
	}
	for i := range c.pruneQ {
		it := &c.pruneQ[i]
		it.stack[it.idx] = c.traceSpine(it.sk, it.g, it.stack[it.idx])
		c.Liveness.SpineRoots++
	}
	c.pruneQ = c.pruneQ[:0]
	c.pruneOn = false
}

package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Generational nursery support. Goldberg's frame GC routines make stacks
// re-traceable at zero metadata cost, which is exactly the property a
// generational collector needs: stack (and global) roots are rescanned on
// every minor collection anyway, so a remembered set only has to cover
// old→young *heap* stores (Appel's "Simple Generational Garbage Collection
// and Fast Allocation" applied to the tag-free setting).
//
// Layout: the nursery is a set of shards — one per task group under
// -shards N, a single shard otherwise — each shard two young halves,
// placed at the *front* of the word array, below both disciplines'
// regions:
//
//	mem = [ sh0 half0 | sh0 half1 | sh1 half0 | sh1 half1 | ... | old ]
//
// Young offsets are therefore fixed for the life of the heap — Grow extends
// only the old region above them, so growing never moves a young object and
// the recovery ladder works unchanged mid-nursery. A pointer is young iff
// its offset is below shards*2*youngWords; its owning shard is the offset
// divided by the per-shard extent. The write barrier stays two compares.
//
// Allocation in the nursery is a pure bump in the allocation shard's
// active half (SetAllocShard routes each task to its shard; a single-shard
// heap never changes it). Every collection evacuates active young halves:
// an object that has survived promoteAfter collections is copied into the
// shared old region (the discipline's normal allocation: semispace bump
// under copying, bump-or-free-list under mark/sweep); younger survivors
// are copied to their shard's other half with their age incremented,
// Cheney-style between the two halves. If the old region cannot take a
// promotion the object simply stays young another cycle — promotion
// degrades instead of failing, so a collection can never overflow: young
// survivors always fit in the other half.
//
// A *global* collection (minor or major) evacuates every shard. A *shard*
// minor (BeginMinorGCShard) evacuates exactly one shard's active half and
// leaves every other shard's mutators and objects untouched — the
// scheduler guarantees, via its exposure tracking, that no pointer into
// the collected shard lives outside that shard's task stacks, its own
// young objects, and the remembered set, so the trace is complete without
// stopping anyone else.
//
// During a *minor* collection old objects are not traced at all:
// VisitObject returns them untouched, so the existing typed trace
// (frame plans, kernels, recursive TypeGC walks) stops at the young/old
// boundary automatically and only the remembered set (owned by the
// collector, see internal/gc) re-traces interior old→young edges. During
// a *shard* minor, other shards' young objects are likewise returned
// untouched. During a *major*, old objects take the discipline's normal
// path and every young half is evacuated by the same aging rules in the
// same trace.
type nursery struct {
	enabled bool
	// youngWords is the size of each half (same for every shard).
	youngWords int
	// shards holds the per-shard nursery state; a non-sharded heap has
	// exactly one.
	shards []nurseryShard
	// allocShard routes young allocation (and TLAB carves) to one shard's
	// active half. The tasking scheduler sets it before each task's
	// quantum; single-shard heaps leave it 0.
	allocShard int
	// promoteAfter is the survival count at which an object is tenured.
	promoteAfter uint8
	// minorGC is true while the in-progress collection is a minor one.
	minorGC bool
	// minorShard is the shard being collected by an in-progress shard
	// minor, or -1 when the collection (minor or major) spans all shards.
	minorShard int
	// tenureAll promotes every survivor regardless of age. The recovery
	// ladder sets it for its escalation collections: without it, survivors
	// below promoteAfter would stay young through any number of full
	// collections and grows (Grow extends only the old region), so a
	// young-sized Need could stay unsatisfiable forever.
	tenureAll bool
}

// nurseryShard is one shard's two-half young generation. All offsets are
// absolute mem indexes.
type nurseryShard struct {
	// base is the offset of the shard's half 0; half 1 starts at
	// base+youngWords.
	base int
	// youngOff is the base offset of the active half (base or
	// base+youngWords).
	youngOff int
	// youngAlloc is the bump pointer in the active half.
	youngAlloc int
	// youngEvac is the bump pointer in the inactive half during a
	// collection (survivor destination).
	youngEvac int
	// youngFwd forwards evacuated objects within one collection: indexed
	// by offset within the from-half, -1 = not yet visited. Reset after
	// every collection that evacuated this shard (side bookkeeping, like
	// the copying forward table).
	youngFwd []int
	// ages[i] holds per-object survival counts for half i, indexed by the
	// object's base offset within that half.
	ages [2][]uint8
}

// activeIdx returns the shard's active half index (0 or 1).
func (s *nurseryShard) activeIdx() int {
	if s.youngOff == s.base {
		return 0
	}
	return 1
}

// armEvac points the shard's evacuation bump at its inactive half.
func (s *nurseryShard) armEvac(youngWords int) {
	if s.youngOff == s.base {
		s.youngEvac = s.base + youngWords
	} else {
		s.youngEvac = s.base
	}
}

// flip makes the inactive half (holding this collection's survivors)
// active and resets the forwarding table for the next cycle.
func (s *nurseryShard) flip(youngWords int) {
	if s.youngOff == s.base {
		s.youngOff = s.base + youngWords
	} else {
		s.youngOff = s.base
	}
	s.youngAlloc = s.youngEvac
	for i := range s.youngFwd {
		s.youngFwd[i] = -1
	}
}

// prefixWords is the young prefix extent: every offset below it is young,
// everything at or above it is the old region. Zero without a nursery.
func (n *nursery) prefixWords() int {
	if !n.enabled {
		return 0
	}
	return len(n.shards) * 2 * n.youngWords
}

// EnableNursery re-lays the heap out with a generational nursery of
// youngWords words per half in front of the old region(s), promoting
// survivors to the old space after promoteAfter collections. It must be
// called before the first allocation (the re-layout moves the old region),
// and only on a tag-free heap: young objects are headerless and evacuation
// is type-directed, exactly like the rest of the collector.
func (h *Heap) EnableNursery(youngWords, promoteAfter int) {
	h.EnableNurseryShards(youngWords, promoteAfter, 1)
}

// EnableNurseryShards is EnableNursery with the young prefix partitioned
// into shards independent two-half nurseries (see the package comment on
// sharding). Shard 0 is the initial allocation shard.
func (h *Heap) EnableNurseryShards(youngWords, promoteAfter, shards int) {
	if h.Repr != code.ReprTagFree {
		panic("EnableNursery: the nursery requires the tag-free representation")
	}
	if h.inGC || h.Stats.Allocations > 0 {
		panic("EnableNursery: must be configured before the first allocation")
	}
	if youngWords <= 0 {
		panic("EnableNursery: youngWords must be positive")
	}
	if shards < 1 {
		panic("EnableNursery: shard count must be at least 1")
	}
	if promoteAfter < 1 {
		promoteAfter = 1
	}
	if promoteAfter > 250 {
		promoteAfter = 250
	}
	n := &h.young
	n.enabled = true
	n.youngWords = youngWords
	n.allocShard = 0
	n.minorShard = -1
	n.promoteAfter = uint8(promoteAfter)
	n.shards = make([]nurseryShard, shards)
	for i := range n.shards {
		s := &n.shards[i]
		s.base = i * 2 * youngWords
		s.youngOff = s.base
		s.youngAlloc = s.base
		s.youngFwd = make([]int, youngWords)
		for j := range s.youngFwd {
			s.youngFwd[j] = -1
		}
		s.ages[0] = make([]uint8, youngWords)
		s.ages[1] = make([]uint8, youngWords)
	}

	shift := n.prefixWords()
	if h.kind == MarkSweep {
		h.mem = make([]code.Word, shift+h.semi)
		h.fromOff, h.toOff = shift, shift
		h.alloc = shift
		h.limit = shift + h.semi
		h.objSize = make([]int32, len(h.mem))
		h.marks = make([]bool, len(h.mem))
		h.gapSize = nil
		return
	}
	h.mem = make([]code.Word, shift+2*h.semi)
	h.fromOff = shift
	h.toOff = shift + h.semi
	h.alloc = h.fromOff
	h.limit = h.fromOff + h.semi
	// forward stays indexed by (base - fromOff); its length is unchanged.
}

// NurseryEnabled reports whether the heap has a generational nursery.
func (h *Heap) NurseryEnabled() bool { return h.young.enabled }

// YoungWords returns the nursery half size (0 without a nursery).
func (h *Heap) YoungWords() int { return h.young.youngWords }

// YoungTotalWords returns the heap's total young allocation capacity: one
// active half per shard. This is the figure occupancy-based policies
// (serve's load shedding) must use — YoungWords alone under-counts a
// sharded heap.
func (h *Heap) YoungTotalWords() int {
	if !h.young.enabled {
		return 0
	}
	return len(h.young.shards) * h.young.youngWords
}

// YoungUsed returns the words allocated across every shard's active half.
func (h *Heap) YoungUsed() int {
	used := 0
	for i := range h.young.shards {
		s := &h.young.shards[i]
		used += s.youngAlloc - s.youngOff
	}
	return used
}

// YoungUsedShard returns the words allocated in one shard's active half.
func (h *Heap) YoungUsedShard(shard int) int {
	s := &h.young.shards[shard]
	return s.youngAlloc - s.youngOff
}

// NurseryShards returns the number of nursery shards (0 without a
// nursery, 1 for the unsharded layout).
func (h *Heap) NurseryShards() int { return len(h.young.shards) }

// AllocShard returns the shard young allocation currently routes to.
func (h *Heap) AllocShard() int { return h.young.allocShard }

// SetAllocShard routes subsequent young allocation (bump fast path and
// TLAB carves) to the given shard's active half. The tasking scheduler
// calls it before each task's quantum.
func (h *Heap) SetAllocShard(shard int) {
	if shard < 0 || shard >= len(h.young.shards) {
		panic(fmt.Sprintf("SetAllocShard: shard %d out of range (%d shards)", shard, len(h.young.shards)))
	}
	h.young.allocShard = shard
}

// PromoteAfter returns the survival count at which objects are tenured.
func (h *Heap) PromoteAfter() int { return int(h.young.promoteAfter) }

// MinorActive reports whether a minor collection is in progress.
func (h *Heap) MinorActive() bool { return h.inGC && h.young.minorGC }

// MinorShard returns the shard an in-progress shard minor is collecting,
// or -1 when the current collection spans all shards (or none is active).
func (h *Heap) MinorShard() int {
	if !h.inGC {
		return -1
	}
	return h.young.minorShard
}

// SetTenureAll switches the nursery into (or out of) tenure-everything
// mode for subsequent collections. See nursery.tenureAll.
func (h *Heap) SetTenureAll(on bool) { h.young.tenureAll = on }

// InYoung reports whether w is a pointer into the nursery. Callers must
// already know w is a pointer-shaped value (tag-free integers can alias
// heap addresses); the barrier guarantees that via static store types.
func (h *Heap) InYoung(w code.Word) bool {
	if !h.young.enabled {
		return false
	}
	off := int(w) - code.HeapBase
	return off >= 0 && off < h.young.prefixWords()
}

// InOld reports whether w is a pointer into the old region.
func (h *Heap) InOld(w code.Word) bool {
	off := int(w) - code.HeapBase
	return off >= h.young.prefixWords() && off < len(h.mem)
}

// youngShardOf returns the shard owning a young mem offset.
func (h *Heap) youngShardOf(base int) int {
	return base / (2 * h.young.youngWords)
}

// YoungShardOf returns the shard owning young pointer w. Callers must
// have established InYoung(w) first.
func (h *Heap) YoungShardOf(w code.Word) int {
	return h.youngShardOf(int(w) - code.HeapBase)
}

// InYoungShard reports whether w is a young pointer owned by the given
// shard.
func (h *Heap) InYoungShard(w code.Word, shard int) bool {
	return h.InYoung(w) && h.YoungShardOf(w) == shard
}

// youngAllocFast bump-allocates total words in the allocation shard's
// active half, or reports false when that half cannot take the request.
func (h *Heap) youngAllocFast(total int) (code.Word, bool) {
	n := &h.young
	s := &n.shards[n.allocShard]
	if s.youngAlloc+total > s.youngOff+n.youngWords {
		return 0, false
	}
	base := s.youngAlloc
	s.youngAlloc += total
	s.ages[s.activeIdx()][base-s.youngOff] = 0
	h.spansValid = false
	h.Stats.Allocations++
	h.Stats.WordsAllocated += int64(total)
	return code.EncodePtr(h.Repr, code.HeapBase+base), true
}

// beginYoungGC arms survivor evacuation into every shard's inactive half
// (global collections evacuate all shards).
func (h *Heap) beginYoungGC(minor bool) {
	n := &h.young
	n.minorGC = minor
	n.minorShard = -1
	for i := range n.shards {
		n.shards[i].armEvac(n.youngWords)
	}
}

// endYoungGC flips the evacuated shards' halves: survivors become each new
// active half's prefix. A shard minor flips only its own shard.
func (h *Heap) endYoungGC() {
	n := &h.young
	for i := range n.shards {
		if n.minorShard >= 0 && i != n.minorShard {
			continue
		}
		n.shards[i].flip(n.youngWords)
	}
	n.minorGC = false
	n.minorShard = -1
}

// BeginMinorGC starts a global minor collection: every shard's nursery is
// collected; old objects are left untouched by VisitObject and the
// remembered set supplies the interior old→young edges.
func (h *Heap) BeginMinorGC() {
	if !h.young.enabled {
		panic("BeginMinorGC: no nursery configured")
	}
	if h.inGC {
		panic("BeginMinorGC: collection already in progress")
	}
	if h.tlabs.live > 0 {
		panic("BeginMinorGC: live TLABs must be retired before a collection")
	}
	h.inGC = true
	h.Stats.Collections++
	h.Stats.MinorCollections++
	h.spans = h.spans[:0]
	h.spansValid = false
	h.beginYoungGC(true)
}

// BeginMinorGCShard starts a minor collection of one shard: only that
// shard's active half is evacuated; every other shard — objects, bump
// pointers, live old-region TLABs — is untouched, so its mutators need not
// stop. The caller (the tasking scheduler) must guarantee the shard is
// unexposed: no pointer into it lives outside its own tasks' stacks, its
// own young objects, and the remembered set. Young TLABs of the collected
// shard must be retired; other shards' TLABs may stay live (old-region
// promotion bumps past every outstanding carve, and a shard minor never
// sweeps).
func (h *Heap) BeginMinorGCShard(shard int) {
	if !h.young.enabled {
		panic("BeginMinorGCShard: no nursery configured")
	}
	if shard < 0 || shard >= len(h.young.shards) {
		panic(fmt.Sprintf("BeginMinorGCShard: shard %d out of range (%d shards)", shard, len(h.young.shards)))
	}
	if h.inGC {
		panic("BeginMinorGCShard: collection already in progress")
	}
	if h.tlabs.liveYoungIn(shard) > 0 {
		panic("BeginMinorGCShard: the collected shard's young TLABs must be retired first")
	}
	h.inGC = true
	h.Stats.Collections++
	h.Stats.MinorCollections++
	h.spans = h.spans[:0]
	h.spansValid = false
	n := &h.young
	n.minorGC = true
	n.minorShard = shard
	n.shards[shard].armEvac(n.youngWords)
}

// EndMinorGC completes a minor collection (global or single-shard). The
// old region is untouched; only the evacuated shards' halves flip.
func (h *Heap) EndMinorGC() {
	if !h.inGC || !h.young.minorGC {
		panic("EndMinorGC: no minor collection in progress")
	}
	h.inGC = false
	h.endYoungGC()
}

// youngVisit is VisitObject for nursery pointers, during both minor and
// major collections: forward if already evacuated, else promote by age
// (falling back to young survival when the old region is full) or copy to
// the shard's inactive half. During a shard minor, other shards' objects
// are returned untouched, exactly like old objects — the exposure
// invariant guarantees nothing reachable only through them belongs to the
// collected shard.
func (h *Heap) youngVisit(ptr code.Word, base, n int) (code.Word, bool) {
	y := &h.young
	if !h.inGC {
		panic("heap: young object visited outside a collection")
	}
	t := h.youngShardOf(base)
	if y.minorShard >= 0 && t != y.minorShard {
		return ptr, false
	}
	s := &y.shards[t]
	// A pointer into the to-half's filled prefix is an already-evacuated
	// object: remembered-set entries recorded during this collection (a
	// promoted parent whose child was just copied) hold post-evacuation
	// addresses, and re-tracing them must be the identity, exactly like a
	// forwarding hit.
	if toBase := s.base + (1-s.activeIdx())*y.youngWords; base >= toBase && base+n <= s.youngEvac {
		return ptr, false
	}
	if base < s.youngOff || base+n > s.youngAlloc {
		panic(fmt.Sprintf("heap: collector visited young offset %d (size %d) outside shard %d's live nursery [%d, %d)",
			base, n, t, s.youngOff, s.youngAlloc))
	}
	rel := base - s.youngOff
	if fwd := s.youngFwd[rel]; fwd >= 0 {
		return code.EncodePtr(h.Repr, code.HeapBase+fwd), false
	}
	fromIdx := s.activeIdx()
	age := s.ages[fromIdx][rel]
	if age < 250 {
		age++
	}
	if age >= y.promoteAfter || y.tenureAll {
		if nb, ok := h.promoteDest(n); ok {
			copy(h.mem[nb:nb+n], h.mem[base:base+n])
			s.youngFwd[rel] = nb
			h.Stats.WordsCopied += int64(n)
			h.Stats.PromotedWords += int64(n)
			return code.EncodePtr(h.Repr, code.HeapBase+nb), true
		}
		// No old-space room: survive in young another cycle instead of
		// failing — the ladder's next full collection or grow makes room.
	}
	nb := s.youngEvac
	s.youngEvac += n
	copy(h.mem[nb:nb+n], h.mem[base:base+n])
	s.ages[1-fromIdx][nb-(s.base+(1-fromIdx)*y.youngWords)] = age
	s.youngFwd[rel] = nb
	h.Stats.WordsCopied += int64(n)
	return code.EncodePtr(h.Repr, code.HeapBase+nb), true
}

// promoteDest allocates n words in the old region for a tenured object, by
// the discipline's own rules. During a copying major the destination is
// to-space (alloc already points there); during a minor it is the mutator's
// from-space bump region. Mark/sweep tries the bump region then the exact
// free lists, and marks the block when a sweep will follow (majors only).
// Reports false when the old region cannot take the object.
func (h *Heap) promoteDest(n int) (int, bool) {
	var base int
	if h.kind == MarkSweep {
		switch {
		case h.alloc+n <= h.limit:
			base = h.alloc
			h.alloc += n
		case len(h.free[n]) > 0:
			l := h.free[n]
			base = l[len(l)-1]
			h.free[n] = l[:len(l)-1]
			h.Stats.FreeListHits++
		default:
			return 0, false
		}
		h.objSize[base] = int32(n)
		if !h.young.minorGC {
			h.marks[base] = true // keep the promoted block through the sweep
		}
		return base, true
	}
	// During a copying major, oldReserve words of to-space are owed to old
	// objects not yet copied; promotions may only take the slack beyond it
	// (and degrade to young survival otherwise — see youngVisit).
	if h.alloc+n > h.limit-h.oldReserve {
		return 0, false
	}
	base = h.alloc
	h.alloc += n
	if h.verify && !h.young.minorGC {
		h.spans = append(h.spans, span{base: base, size: n})
	}
	return base, true
}

// verifyNursery checks the nursery's post-collection invariants for every
// shard: the bump pointer inside the active half and the forwarding table
// fully reset.
func (h *Heap) verifyNursery() []error {
	y := &h.young
	var errs []error
	for i := range y.shards {
		s := &y.shards[i]
		if s.youngAlloc < s.youngOff || s.youngAlloc > s.youngOff+y.youngWords {
			errs = append(errs, fmt.Errorf("heap verify: shard %d nursery bump %d outside active half [%d, %d]",
				i, s.youngAlloc, s.youngOff, s.youngOff+y.youngWords))
		}
		for j, f := range s.youngFwd {
			if f >= 0 {
				errs = append(errs, fmt.Errorf("heap verify: shard %d nursery forwarding entry %d not reset (still %d) after collection", i, j, f))
				break
			}
		}
	}
	return errs
}

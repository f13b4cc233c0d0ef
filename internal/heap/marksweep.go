package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Mark/sweep support. The paper notes its method "will support mark/sweep
// collection as well" (§2): the same compiler-generated frame maps drive
// marking instead of copying. Tag-free objects carry no header to hold a
// mark bit or a size, so the sweep needs side metadata; real tag-free
// systems use size-segregated pages (BiBoP) whose page headers supply
// both. The simulator models that with two side arrays (object-start sizes
// and mark bits) that are collector bookkeeping, excluded from space
// accounting, exactly like the copying mode's forwarding table.
//
// Freed storage goes to exact-size free lists (the BiBoP discipline:
// a block is reused only for objects of its own size class); allocation
// bumps until the space is exhausted, then recycles.

// GCKind selects the collection discipline.
type GCKind int

// Collection disciplines.
const (
	Copying GCKind = iota
	MarkSweep
)

// NewMarkSweep creates a mark/sweep heap with the given total size in
// words. Only tag-free programs use it (the tagged baseline reproduces
// the classical copying collector).
func NewMarkSweep(repr code.Repr, totalWords int) *Heap {
	if repr != code.ReprTagFree {
		panic("NewMarkSweep: mark/sweep is implemented for the tag-free representation")
	}
	h := &Heap{
		Repr:    repr,
		kind:    MarkSweep,
		mem:     make([]code.Word, totalWords),
		semi:    totalWords,
		fromOff: 0,
		toOff:   0,
		alloc:   0,
		limit:   totalWords,
		objSize: make([]int32, totalWords),
		marks:   make([]bool, totalWords),
		free:    map[int][]int{},
	}
	return h
}

// Kind returns the heap's collection discipline.
func (h *Heap) Kind() GCKind { return h.kind }

// msCanAlloc reports whether n object words fit without collecting.
func (h *Heap) msCanAlloc(n int) bool {
	if h.alloc+n <= h.limit {
		return true
	}
	return len(h.free[n]) > 0
}

// msAlloc allocates n words from the bump region or the free lists,
// returning a typed *OutOfMemoryError when neither can serve the request.
func (h *Heap) msAlloc(n int) (code.Word, error) {
	var base int
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
		return 0, h.oomError(n)
	}
	h.objSize[base] = int32(n)
	h.spansValid = false
	h.Stats.Allocations++
	h.Stats.WordsAllocated += int64(n)
	return code.EncodePtr(h.Repr, code.HeapBase+base), nil
}

// VisitObject is the collector's single object-retention primitive: under
// copying it forwards (copying on first visit); under mark/sweep it marks.
// It returns the object's current pointer and whether its fields still
// need tracing (first visit).
func (h *Heap) VisitObject(ptr code.Word, n int) (code.Word, bool) {
	if h.young.enabled {
		if base := h.addrIndex(ptr); base < h.young.prefixWords() {
			return h.youngVisit(ptr, base, n)
		}
		if h.young.minorGC {
			// Minor collections leave the old region untouched: old→young
			// edges come from the remembered set, so an old object needs
			// no tracing here.
			return ptr, false
		}
	}
	if h.kind == MarkSweep {
		base := h.addrIndex(ptr)
		if h.objSize[base] == 0 {
			panic(fmt.Sprintf("heap: collector visited a freed block at offset %d (size %d)", base, n))
		}
		if int(h.objSize[base]) != n {
			panic(fmt.Sprintf("heap: collector visited block at %d with size %d, allocated as %d",
				base, n, h.objSize[base]))
		}
		if h.marks[base] {
			return ptr, false
		}
		h.marks[base] = true
		h.Stats.WordsCopied += int64(n) // marked words (same column as copied)
		return ptr, true
	}
	if fwd, ok := h.Forwarded(ptr); ok {
		return fwd, false
	}
	return h.CopyObject(ptr, n), true
}

// MarkedShared reports whether the object at ptr is already marked,
// without marking it. The concurrent write barrier uses it to skip graying
// targets the cycle has already claimed — without the check a store-heavy
// mutator regrows the gray queue faster than slices drain it.
func (h *Heap) MarkedShared(ptr code.Word) bool {
	if h.kind != MarkSweep {
		panic("MarkedShared: requires a mark/sweep heap")
	}
	return h.marks[h.addrIndex(ptr)]
}

// ResetMarks clears every mark bit without sweeping. The concurrent marker
// uses it to discard a partially-marked heap when it aborts a cycle.
func (h *Heap) ResetMarks() {
	if h.kind != MarkSweep {
		panic("ResetMarks: requires a mark/sweep heap")
	}
	clear(h.marks)
}

// FreeListWords returns the total storage parked on the mark/sweep free
// lists across all size classes. On a copying heap it is zero.
func (h *Heap) FreeListWords() int {
	total := 0
	for n, l := range h.free {
		total += n * len(l)
	}
	return total
}

// msEndGC sweeps: every allocated object that is unmarked joins its size
// class's free list; marks are cleared.
func (h *Heap) msEndGC() {
	live := int64(0)
	// Reset free lists; rebuild from the sweep (freed blocks may have been
	// reallocated and re-freed across cycles).
	h.free = map[int][]int{}
	for base := h.fromOff; base < h.alloc; {
		n := int(h.objSize[base])
		if n == 0 {
			// A gap left by an earlier sweep whose block was never
			// reallocated: recover its extent from the gap table.
			n = int(h.gapSize[base])
			h.free[n] = append(h.free[n], base)
			base += n
			continue
		}
		if h.marks[base] {
			live += int64(n)
			h.marks[base] = false
		} else {
			h.free[n] = append(h.free[n], base)
			if h.gapSize == nil {
				h.gapSize = make([]int32, len(h.mem))
			}
			h.gapSize[base] = int32(n)
			h.objSize[base] = 0
			if h.poison {
				h.poisonRange(base, n)
			}
		}
		base += n
	}
	h.Stats.LiveAfterLastGC = live
	if live > h.Stats.PeakLive {
		h.Stats.PeakLive = live
	}
}

// SetDebugAccess enables per-access validation: reading or writing a field
// of a freed block panics with the offending offset (tests only).
func (h *Heap) SetDebugAccess(on bool) { h.debugAccess = on }

func (h *Heap) checkAccess(ptr code.Word, i int) {
	if h.kind != MarkSweep {
		return
	}
	base := h.addrIndex(ptr)
	if h.young.enabled && base < h.young.prefixWords() {
		if h.inGC {
			return // evacuation reads both halves mid-collection
		}
		s := &h.young.shards[h.youngShardOf(base)]
		if base < s.youngOff || base >= s.youngAlloc {
			panic(fmt.Sprintf("heap: field access to young offset %d outside the live nursery [%d, %d)",
				base, s.youngOff, s.youngAlloc))
		}
		return
	}
	if base < 0 || base >= len(h.objSize) {
		panic(fmt.Sprintf("heap: field access outside heap at offset %d", base))
	}
	if h.objSize[base] == 0 {
		panic(fmt.Sprintf("heap: field access to freed block at offset %d (field %d)", base, i))
	}
	if i >= int(h.objSize[base]) {
		panic(fmt.Sprintf("heap: field %d out of bounds for block at %d (size %d)", i, base, h.objSize[base]))
	}
}

// SetPoison makes the sweep overwrite freed blocks with a sentinel value.
// Any later read of freed memory then produces loudly-wrong values instead
// of silently-stale ones (tests use it to harden against collector
// precision bugs; see DESIGN.md §8 for the incident that motivated it).
func (h *Heap) SetPoison(on bool) { h.poison = on }

// PoisonWord is the sentinel written into freed blocks under SetPoison.
const PoisonWord code.Word = -0x7D0150

func (h *Heap) poisonRange(base, n int) {
	for i := 0; i < n; i++ {
		h.mem[base+i] = PoisonWord
	}
}

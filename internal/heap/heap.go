// Package heap implements the simulated heap: a flat word array split into
// two semispaces for copying collection.
//
// The reproduction cannot observe a real process heap (the Go runtime's own
// collector interferes), so all MinML objects live in this array and all
// "pointers" are indexes offset by code.HeapBase. Two object formats are
// supported:
//
//   - Tag-free (the paper's design): an object is exactly its fields; there
//     are no headers. Object extents come from the compiler-generated GC
//     metadata that drives the collector. Forwarding during copying uses a
//     side table indexed by from-space offset (a real implementation would
//     overwrite the first field and detect to-space addresses; the side
//     table is equivalent and keeps the simulation honest about not needing
//     in-object bits).
//   - Tagged (the baseline): every object carries one header word encoding
//     its length, and the collector relies on per-word tags. Forwarding
//     overwrites the header with a broken-heart pointer (headers are odd,
//     pointers even).
//
// The heap never triggers collection itself: the abstract machine checks
// Need before allocating and runs a collector at a safe point, matching the
// paper's "collection can only be initiated by a call to an allocating
// procedure" discipline (§2.1).
package heap

import (
	"fmt"

	"tagfree/internal/code"
)

// Stats counts heap activity for the experiment harness.
type Stats struct {
	// Allocations is the number of objects allocated.
	Allocations int64
	// WordsAllocated counts all words ever allocated (headers included).
	WordsAllocated int64
	// Collections is the number of garbage collections run.
	Collections int64
	// WordsCopied counts words copied by all collections.
	WordsCopied int64
	// LiveAfterLastGC is the resident size after the last collection.
	LiveAfterLastGC int64
	// PeakLive is the maximum resident size observed after any collection.
	PeakLive int64
	// FreeListHits counts mark/sweep allocations served by recycling a
	// free-list block instead of bumping (telemetry: free-list hit rate).
	FreeListHits int64
	// Growths counts successful Grow calls (the OOM recovery ladder's
	// grow rung).
	Growths int64
	// MinorCollections counts nursery-only collections (included in
	// Collections).
	MinorCollections int64
	// PromotedWords counts words tenured from the nursery into the old
	// region across all collections.
	PromotedWords int64
	// SharedAllocs counts allocation requests that touched the shared heap
	// — every Alloc entry plus every TLAB chunk carve. In a real runtime
	// each is a shared-heap lock acquisition; with TLABs enabled the ratio
	// SharedAllocs/Allocations is the amortized O(1/chunk) claim (tlab.go).
	SharedAllocs int64
	// TLABAllocs counts objects bump-allocated from a task-local buffer
	// (no shared-heap interaction); TLABAllocWords is their word total.
	TLABAllocs     int64
	TLABAllocWords int64
	// TLABRefills counts chunk carves; TLABRefillWords the words carved.
	TLABRefills     int64
	TLABRefillWords int64
	// TLABWasteWords counts carved words discarded at retirement (the
	// buffer tail no object fit into); TLABReturnedWords counts tails given
	// back to the region bump pointer instead. Exact accounting invariant
	// once every buffer is retired:
	// TLABRefillWords == TLABAllocWords + TLABWasteWords + TLABReturnedWords.
	TLABWasteWords    int64
	TLABReturnedWords int64
}

// Heap is a garbage-collected heap over a flat word array: a semispace
// copying heap by default, or a mark/sweep heap (see marksweep.go).
type Heap struct {
	Repr code.Repr
	kind GCKind
	mem  []code.Word
	semi int
	// fromOff and toOff are the base mem indexes of the two spaces.
	fromOff, toOff int
	alloc, limit   int
	// forward is the tag-free side forwarding table (from-space offsets to
	// to-space absolute indexes; -1 = not forwarded). Its storage is
	// bookkeeping of the collector, not program memory, and is excluded
	// from all space accounting.
	forward []int
	inGC    bool
	// Mark/sweep side metadata (see marksweep.go): per-object sizes at
	// their start offsets, mark bits, exact-size free lists, and the sizes
	// of swept gaps awaiting reuse.
	objSize []int32
	// marks holds one mark flag per heap word, set at object starts.
	marks   []bool
	free    map[int][]int
	gapSize []int32
	// debugAccess validates every field access against the mark/sweep
	// allocation map (tests only).
	debugAccess bool
	// poison overwrites freed blocks with PoisonWord during sweeps.
	poison bool
	// verify enables span recording during copying collections so
	// VerifyHeap can check forwarding completeness (see verify.go).
	verify bool
	// spans records every object copied by the most recent collection, in
	// copy order (ascending base). spansValid is true only between EndGC
	// and the next mutator allocation, the window in which the spans tile
	// the active space exactly.
	spans      []span
	spansValid bool
	// young is the generational nursery state (see nursery.go); zero value
	// = no nursery, all fast paths compile to the pre-generational code.
	young nursery
	// oldReserve, during a copying major with the nursery on, is the
	// to-space headroom still owed to uncopied old objects. Promotions may
	// only take what lies beyond it: the from-space used count bounds the
	// words CopyObject can ever need, so holding that many back makes an
	// old-object copy overflow impossible no matter how the trace
	// interleaves promotions with old copies. Each old copy repays its own
	// share. Zero outside copying majors.
	oldReserve int
	// tlabs is the task-local allocation buffer state (see tlab.go); zero
	// value = no TLABs, allocation goes through Alloc unchanged.
	tlabs tlabState
	Stats Stats
}

// span is one live object's extent recorded during a verified collection.
type span struct{ base, size int }

// New creates a heap with the given semispace size in words.
func New(repr code.Repr, semiWords int) *Heap {
	h := &Heap{
		Repr:    repr,
		mem:     make([]code.Word, 2*semiWords),
		semi:    semiWords,
		fromOff: 0,
		toOff:   semiWords,
		alloc:   0,
		limit:   semiWords,
	}
	if repr == code.ReprTagFree {
		h.forward = make([]int, semiWords)
		for i := range h.forward {
			h.forward[i] = -1
		}
	}
	return h
}

// SemiWords returns the semispace size.
func (h *Heap) SemiWords() int { return h.semi }

// MemSnapshot returns a copy of the heap's entire word array. Tests use it
// to assert that two collection configurations (fast path on and off, say)
// leave bit-identical heaps.
func (h *Heap) MemSnapshot() []code.Word {
	return append([]code.Word(nil), h.mem...)
}

// Used returns the words currently allocated in the active space.
func (h *Heap) Used() int { return h.alloc - h.fromOff }

// OccupiedWords estimates the words actually holding objects: the bump
// high-water mark minus the storage parked on the mark/sweep free lists
// (on a copying heap the two coincide — nothing is parked). The concurrent
// mark trigger watches this figure: Used alone saturates permanently once
// a mark/sweep bump region has filled, even when sweeps have recycled most
// of it.
func (h *Heap) OccupiedWords() int {
	return h.Used() - h.FreeListWords()
}

// ActiveSnapshot returns a copy of the allocated words of the active
// space. On a copying heap right after a full collection this is the
// trace-order-deterministic image of the live heap — the TLAB differential
// suite bit-compares it across configurations that must converge on the
// same layout. (Mark/sweep layouts are history-dependent; compare those
// with gc.LiveSignature instead.)
func (h *Heap) ActiveSnapshot() []code.Word {
	out := make([]code.Word, h.alloc-h.fromOff)
	copy(out, h.mem[h.fromOff:h.alloc])
	return out
}

// Need reports whether allocating n object words (plus a header in tagged
// mode) requires a collection first. With a nursery, a request that fits a
// young half checks only the nursery bump (a minor collection empties it);
// oversize requests are pre-tenured and check the old region as before.
func (h *Heap) Need(n int) bool {
	total := h.objWords(n)
	if h.young.enabled && total <= h.young.youngWords {
		s := &h.young.shards[h.young.allocShard]
		return s.youngAlloc+total > s.youngOff+h.young.youngWords
	}
	if h.kind == MarkSweep {
		return !h.msCanAlloc(total)
	}
	return h.alloc+total > h.limit
}

func (h *Heap) objWords(fields int) int {
	if h.Repr == code.ReprTagged {
		return fields + 1
	}
	return fields
}

// Alloc allocates an object with n fields and returns its encoded pointer,
// or a *OutOfMemoryError when the space is exhausted. Exhaustion is an
// ordinary return value — not a panic — so callers (the tasking
// scheduler) can climb the recovery ladder: collect, retry, grow, and only
// then fault. Fields are uninitialized; in tagged mode the header is
// written.
func (h *Heap) Alloc(n int) (code.Word, error) {
	total := h.objWords(n)
	h.Stats.SharedAllocs++
	if h.young.enabled && !h.inGC && total <= h.young.youngWords {
		if ptr, ok := h.youngAllocFast(total); ok {
			return ptr, nil
		}
		s := &h.young.shards[h.young.allocShard]
		return 0, &OutOfMemoryError{Discipline: "nursery", Requested: total,
			Free: s.youngOff + h.young.youngWords - s.youngAlloc}
	}
	if h.kind == MarkSweep {
		return h.msAlloc(total)
	}
	if h.alloc+total > h.limit {
		return 0, h.oomError(total)
	}
	base := h.alloc
	h.alloc += total
	h.spansValid = false
	h.Stats.Allocations++
	h.Stats.WordsAllocated += int64(total)
	if h.Repr == code.ReprTagged {
		h.mem[base] = code.Word(n)<<1 | 1 // odd header: field count
	}
	return code.EncodePtr(h.Repr, code.HeapBase+base), nil
}

// MustAlloc is Alloc for callers that have already ensured space (Need
// returned false, possibly after a collection): it panics on exhaustion.
func (h *Heap) MustAlloc(n int) code.Word {
	ptr, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return ptr
}

// OutOfMemoryError reports heap exhaustion that a collection did not cure.
type OutOfMemoryError struct {
	// Discipline names the heap discipline that ran out ("copying" or
	// "mark/sweep"), so both variants report uniformly.
	Discipline string
	Requested  int
	// Free is the contiguous bump-region space still available.
	Free int
	// FreeListWords is the storage parked on mark/sweep free lists whose
	// size classes did not match the request. Nonzero means the heap had
	// room in aggregate but the exact-size (BiBoP) discipline could not use
	// it — without this field the "0 free" diagnostic was misleading.
	FreeListWords int
}

// Error implements the error interface. The format is uniform across both
// disciplines: "heap exhausted (<discipline>): need N words, M contiguous
// free", with the mismatched free-list storage appended when nonzero.
func (e *OutOfMemoryError) Error() string {
	s := fmt.Sprintf("heap exhausted (%s): need %d words, %d contiguous free",
		e.Discipline, e.Requested, e.Free)
	if e.FreeListWords > 0 {
		s += fmt.Sprintf(" (%d more words on mismatched free lists)", e.FreeListWords)
	}
	return s
}

// oomError builds the typed exhaustion failure for a request of total
// words, capturing the current discipline's free-space picture.
func (h *Heap) oomError(total int) *OutOfMemoryError {
	e := &OutOfMemoryError{Discipline: "copying", Requested: total, Free: h.limit - h.alloc}
	if h.kind == MarkSweep {
		e.Discipline = "mark/sweep"
		e.FreeListWords = h.FreeListWords()
	}
	return e
}

// addrIndex converts an encoded pointer to a mem index.
func (h *Heap) addrIndex(ptr code.Word) int {
	return code.DecodePtr(h.Repr, ptr) - code.HeapBase
}

// fieldBase returns the mem index of field 0.
func (h *Heap) fieldBase(ptr code.Word) int {
	base := h.addrIndex(ptr)
	if h.Repr == code.ReprTagged {
		return base + 1
	}
	return base
}

// Field reads field i of an object.
func (h *Heap) Field(ptr code.Word, i int) code.Word {
	if h.debugAccess {
		h.checkAccess(ptr, i)
	}
	return h.mem[h.fieldBase(ptr)+i]
}

// SetField writes field i of an object.
func (h *Heap) SetField(ptr code.Word, i int, v code.Word) {
	h.mem[h.fieldBase(ptr)+i] = v
}

// ObjLen returns a tagged object's field count from its header.
func (h *Heap) ObjLen(ptr code.Word) int {
	if h.Repr != code.ReprTagged {
		panic("ObjLen: tag-free objects have no header")
	}
	return int(h.mem[h.addrIndex(ptr)] >> 1)
}

// ---------------------------------------------------------------------------
// Collection support.
// ---------------------------------------------------------------------------

// BeginGC flips allocation into to-space. Collectors then forward roots via
// Forward*/Copy and finish with EndGC.
func (h *Heap) BeginGC() {
	if h.inGC {
		panic("BeginGC: collection already in progress")
	}
	if h.tlabs.live > 0 {
		panic("BeginGC: live TLABs must be retired before a collection")
	}
	h.inGC = true
	h.Stats.Collections++
	h.spans = h.spans[:0]
	h.spansValid = false
	if h.young.enabled {
		h.beginYoungGC(false)
	}
	if h.kind == MarkSweep {
		return // marking happens in place; nothing to flip
	}
	if h.young.enabled {
		// Promotions and old-object copies share the to-space bump; hold
		// back one word of headroom per used from-space word so the copies
		// (whose total can never exceed it) cannot be starved by an
		// unlucky promotion order.
		h.oldReserve = h.alloc - h.fromOff
	}
	h.alloc = h.toOff
	h.limit = h.toOff + h.semi
}

// EndGC completes the flip: to-space becomes the active space.
func (h *Heap) EndGC() {
	if !h.inGC {
		panic("EndGC: no collection in progress")
	}
	h.inGC = false
	h.oldReserve = 0
	if h.young.enabled {
		defer h.endYoungGC()
	}
	if h.kind == MarkSweep {
		h.msEndGC()
		return
	}
	h.fromOff, h.toOff = h.toOff, h.fromOff
	live := int64(h.alloc - h.fromOff)
	h.Stats.LiveAfterLastGC = live
	if live > h.Stats.PeakLive {
		h.Stats.PeakLive = live
	}
	if h.forward != nil {
		for i := range h.forward {
			h.forward[i] = -1
		}
	}
	h.spansValid = h.verify
}

// InGC reports whether a collection is in progress.
func (h *Heap) InGC() bool { return h.inGC }

// Forwarded looks up a tag-free object's forwarding address; ok is false
// when the object has not been copied yet.
func (h *Heap) Forwarded(ptr code.Word) (code.Word, bool) {
	off := h.addrIndex(ptr) - h.fromOff
	if h.Repr == code.ReprTagFree {
		if h.forward[off] < 0 {
			return 0, false
		}
		return code.EncodePtr(h.Repr, code.HeapBase+h.forward[off]), true
	}
	// Tagged: broken heart replaces the (odd) header with the (even) new
	// pointer.
	hdr := h.mem[h.fromOff+off]
	if hdr&1 == 1 {
		return 0, false
	}
	return hdr, true
}

// ScanToSpace performs a Cheney scan during a tagged-mode collection:
// every field word of every object copied so far is passed through trace
// (which may copy further objects, growing the scan frontier). Object
// extents come from headers; only tagged heaps can do this without
// compiler metadata.
func (h *Heap) ScanToSpace(trace func(code.Word) code.Word) {
	if h.Repr != code.ReprTagged {
		panic("ScanToSpace: requires tagged headers")
	}
	if !h.inGC {
		panic("ScanToSpace: no collection in progress")
	}
	scan := h.toOff
	for scan < h.alloc {
		n := int(h.mem[scan] >> 1)
		for i := 1; i <= n; i++ {
			h.mem[scan+i] = trace(h.mem[scan+i])
		}
		scan += 1 + n
	}
}

// ScanToSpaceBatched is ScanToSpace with one callback per object rather
// than per field word: scan receives the object's field words as a slice
// aliasing to-space and rewrites traced values in place (copies it makes
// grow the frontier as usual). Batching removes a closure call per word
// from the tagged collection's hot scan loop; the backing array never
// moves during a collection, so the slice stays valid across copies.
func (h *Heap) ScanToSpaceBatched(scan func(fields []code.Word)) {
	if h.Repr != code.ReprTagged {
		panic("ScanToSpaceBatched: requires tagged headers")
	}
	if !h.inGC {
		panic("ScanToSpaceBatched: no collection in progress")
	}
	p := h.toOff
	for p < h.alloc {
		n := int(h.mem[p] >> 1)
		scan(h.mem[p+1 : p+1+n])
		p += 1 + n
	}
}

// CopyObject copies an n-field object into to-space during a collection,
// records its forwarding, and returns the new encoded pointer. Field
// contents are copied verbatim; the collector re-traces them via Field on
// the new pointer (Cheney-style or recursive, its choice).
func (h *Heap) CopyObject(ptr code.Word, n int) code.Word {
	if !h.inGC {
		panic("CopyObject: no collection in progress")
	}
	total := h.objWords(n)
	if h.alloc+total > h.limit {
		panic(h.oomError(total))
	}
	if h.oldReserve > 0 {
		// Repay this copy's share of the promotion holdback.
		if h.oldReserve -= total; h.oldReserve < 0 {
			h.oldReserve = 0
		}
	}
	oldBase := h.addrIndex(ptr)
	newBase := h.alloc
	h.alloc += total
	if h.verify {
		h.spans = append(h.spans, span{base: newBase, size: total})
	}
	copy(h.mem[newBase:newBase+total], h.mem[oldBase:oldBase+total])
	h.Stats.WordsCopied += int64(total)
	newPtr := code.EncodePtr(h.Repr, code.HeapBase+newBase)
	if h.Repr == code.ReprTagFree {
		h.forward[oldBase-h.fromOff] = newBase
	} else {
		h.mem[oldBase] = newPtr // broken heart (even)
	}
	return newPtr
}

// Grow extends the heap to newWords words per semispace (copying) or total
// (mark/sweep) without moving any object: every live pointer stays valid.
// It is the recovery ladder's second rung, taken only when a collection did
// not free enough space. Growing is refused during a collection and when
// newWords does not exceed the current size.
//
// Copying layout after a grow: the live from-space keeps its base offset,
// and the two (larger) spaces are laid out back-to-back above it. When the
// old from-space sat above the old to-space, the words below it become a
// permanently dead prefix — at most one pre-grow semispace per grow, a
// geometrically-shrinking overhead under any growth factor > 1 — which
// keeps growth O(live) with zero relocation.
func (h *Heap) Grow(newWords int) error {
	if h.inGC {
		return fmt.Errorf("heap: Grow during a collection")
	}
	if h.tlabs.live > 0 {
		return fmt.Errorf("heap: Grow with %d live TLABs (retire them first)", h.tlabs.live)
	}
	if newWords <= h.semi {
		return fmt.Errorf("heap: Grow(%d) does not exceed the current %d words", newWords, h.semi)
	}
	if h.kind == MarkSweep {
		// The old region sits at [fromOff, fromOff+semi); with a nursery,
		// fromOff is the fixed young prefix, which the grow preserves
		// verbatim (young objects never move).
		total := h.fromOff + newWords
		mem := make([]code.Word, total)
		copy(mem, h.mem)
		objSize := make([]int32, total)
		copy(objSize, h.objSize)
		marks := make([]bool, total)
		copy(marks, h.marks)
		h.mem, h.objSize, h.marks = mem, objSize, marks
		if h.gapSize != nil {
			gapSize := make([]int32, total)
			copy(gapSize, h.gapSize)
			h.gapSize = gapSize
		}
		h.semi = newWords
		h.limit = h.fromOff + newWords
		h.spansValid = false
		h.Stats.Growths++
		return nil
	}
	mem := make([]code.Word, h.fromOff+2*newWords)
	copy(mem[:h.young.prefixWords()], h.mem[:h.young.prefixWords()])
	copy(mem[h.fromOff:], h.mem[h.fromOff:h.alloc])
	h.mem = mem
	h.toOff = h.fromOff + newWords
	h.limit = h.fromOff + newWords
	h.semi = newWords
	if h.Repr == code.ReprTagFree {
		h.forward = make([]int, newWords)
		for i := range h.forward {
			h.forward[i] = -1
		}
	}
	h.spansValid = false
	h.Stats.Growths++
	return nil
}

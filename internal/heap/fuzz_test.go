package heap

import (
	"testing"

	"tagfree/internal/code"
)

// FuzzMarkSweepFreeList drives a mark/sweep heap through arbitrary
// alloc/drop/collect sequences decoded from the fuzz input and checks the
// side-metadata invariants after every collection: the object-start table,
// the mark bits, the gap table and the exact-size free lists must never
// disagree about what each word of the heap is.
func FuzzMarkSweepFreeList(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 1, 0, 2, 0, 2, 0, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 0, 2, 0, 1, 2})
	f.Add([]byte{2, 2, 0, 8, 1, 0, 2, 0, 8, 0, 8, 1, 1, 2, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const heapWords = 256
		h := NewMarkSweep(code.ReprTagFree, heapWords)

		type obj struct {
			ptr  code.Word
			size int
		}
		var live []obj

		collect := func() {
			h.BeginGC()
			for _, o := range live {
				if _, fresh := h.VisitObject(o.ptr, o.size); !fresh {
					t.Fatalf("live object at %v visited twice in one collection", o.ptr)
				}
			}
			h.EndGC()
			checkMarkSweepInvariants(t, h, func() map[int]int {
				m := make(map[int]int, len(live))
				for _, o := range live {
					m[h.addrIndex(o.ptr)] = o.size
				}
				return m
			}())
		}

		for i := 0; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0: // alloc, size from the next byte
				i++
				if i >= len(ops) {
					return
				}
				size := int(ops[i]%8) + 1
				if h.Need(size) {
					// Would not fit (bump region full, no matching free
					// block) — allocating would OOM, skip.
					continue
				}
				ptr := h.MustAlloc(size)
				base := h.addrIndex(ptr)
				if int(h.objSize[base]) != size {
					t.Fatalf("alloc(%d): objSize[%d] = %d", size, base, h.objSize[base])
				}
				live = append(live, obj{ptr, size})
			case 1: // drop one live object (becomes garbage for the next GC)
				if len(live) == 0 {
					continue
				}
				i++
				k := 0
				if i < len(ops) {
					k = int(ops[i]) % len(live)
				}
				live = append(live[:k], live[k+1:]...)
			case 2: // collect
				collect()
			}
		}
		collect()
	})
}

// checkMarkSweepInvariants validates the heap's side metadata right after
// a collection. liveAt maps object base offsets to their sizes.
func checkMarkSweepInvariants(t *testing.T, h *Heap, liveAt map[int]int) {
	t.Helper()

	// 1. Live objects keep their allocation extent; mark bits are reset.
	for base, size := range liveAt {
		if int(h.objSize[base]) != size {
			t.Fatalf("live object at %d: objSize %d, want %d", base, h.objSize[base], size)
		}
		if h.marks[base] {
			t.Fatalf("mark bit not cleared at %d", base)
		}
	}

	// 2. Free-list blocks are in bounds, disjoint, sized per their list,
	// and agree with the gap table; none overlaps a live object.
	freeWords := 0
	seen := map[int]bool{}
	for size, list := range h.free {
		for _, base := range list {
			if base < 0 || base+size > len(h.mem) {
				t.Fatalf("free block [%d,%d) out of bounds", base, base+size)
			}
			if seen[base] {
				t.Fatalf("offset %d on two free lists", base)
			}
			seen[base] = true
			if h.objSize[base] != 0 {
				t.Fatalf("free block at %d still has objSize %d", base, h.objSize[base])
			}
			if int(h.gapSize[base]) != size {
				t.Fatalf("free block at %d: gapSize %d on the %d-word list", base, h.gapSize[base], size)
			}
			if _, isLive := liveAt[base]; isLive {
				t.Fatalf("offset %d is both live and free", base)
			}
			freeWords += size
		}
	}
	if got := h.FreeListWords(); got != freeWords {
		t.Fatalf("FreeListWords() = %d, walk found %d", got, freeWords)
	}

	// 3. Walking the swept region by extents covers every word exactly
	// once: each base is a live object or a free block, and the sum of
	// live + free words is the bump high-water mark.
	liveWords := 0
	for base := 0; base < h.alloc; {
		if size, ok := liveAt[base]; ok {
			liveWords += size
			base += size
			continue
		}
		if n := int(h.gapSize[base]); n > 0 && h.objSize[base] == 0 {
			if !seen[base] {
				t.Fatalf("gap at %d not on any free list", base)
			}
			base += n
			continue
		}
		t.Fatalf("offset %d is neither a live object nor a free block", base)
	}
	if liveWords+freeWords != h.alloc {
		t.Fatalf("live %d + free %d != swept region %d", liveWords, freeWords, h.alloc)
	}
	if h.Stats.LiveAfterLastGC != int64(liveWords) {
		t.Fatalf("LiveAfterLastGC = %d, walk found %d", h.Stats.LiveAfterLastGC, liveWords)
	}
}

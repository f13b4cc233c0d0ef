package gc

import "tagfree/internal/code"

// Live-heap signatures. The TLAB differential suite needs to prove that
// two runs of the same program — one bump-allocating through per-task
// buffers, one through the shared heap — end with the *same live heap*,
// even though buffer carving tiles the space differently and mark/sweep
// addresses are history-dependent. LiveSignature serializes the reachable
// graph into a canonical, address-free word stream: two heaps produce
// bit-identical signatures exactly when they hold the same values with the
// same sharing, regardless of where objects landed.
//
// The serialization is a typed depth-first walk mirroring the verifier's
// (verify.go): same dispatch, same field order, same dataG tail-spine
// iteration, so the signature covers precisely the structure the collector
// is responsible for. Each word emits a tagged pair:
//
//	0, raw   — an immediate, copied verbatim
//	1, idx   — a back-edge to the idx'th object this walk visited
//	2, size  — a first visit; the object's fields follow in type order
//
// Pointers never appear: a boxed word is renamed to its first-visit index,
// which depends only on the walk order, not the address.

// LiveSignature serializes the live heap reachable from the global roots.
// Tagged heaps are walked by headers; every other strategy walks by type,
// exactly as the verifier does. Call it only while the heap is quiescent
// (end of run, or between a collection and the next allocation).
func (c *Collector) LiveSignature(globals []code.Word) []code.Word {
	s := &signer{c: c, seen: map[code.Word]int{}}
	for i, g := range c.Prog.Globals {
		if c.Strat == StratTagged {
			s.walkTagged(globals[i])
		} else {
			s.walk(c.FromDesc(g.Desc, nil), globals[i])
		}
	}
	return s.out
}

// RootSignature serializes the live heap reachable from the globals AND
// every task's resolved frame slots — the whole retained set of the
// preceding collection, in the same canonical address-free stream as
// LiveSignature. The heap-liveness projection suite compares these
// between a pruning and a full-structure collection of identical roots:
// the pruned stream must equal the full one except where a pruned field's
// poison word stands in for a whole dead subtree. Call it only while the
// heap is quiescent (between a collection and the next allocation) and
// never under the tagged strategy (task roots resolve through frame
// maps).
func (c *Collector) RootSignature(tasks []TaskRoots, globals []code.Word) []code.Word {
	s := &signer{c: c, seen: map[code.Word]int{}}
	for i, g := range c.Prog.Globals {
		s.walk(c.FromDesc(g.Desc, nil), globals[i])
	}
	var st Stats // resolution stats of the signature walk are discarded
	c.sc.reset() // any prior collection's windows are dead by now
	for i := range tasks {
		for _, j := range c.taskJobs(tasks[i], &st) {
			s.walk(j.g, tasks[i].Stack[j.idx])
		}
	}
	return s.out
}

type signer struct {
	c    *Collector
	seen map[code.Word]int // pointer word -> first-visit index
	out  []code.Word
}

// enter emits the back-edge or first-visit marker for a boxed word and
// reports whether the caller should serialize the object's contents.
func (s *signer) enter(w code.Word, size int) bool {
	if idx, ok := s.seen[w]; ok {
		s.out = append(s.out, 1, code.Word(idx))
		return false
	}
	s.seen[w] = len(s.seen)
	s.out = append(s.out, 2, code.Word(size))
	return true
}

func (s *signer) raw(w code.Word) { s.out = append(s.out, 0, w) }

func (s *signer) walk(g TypeGC, w code.Word) {
	c := s.c
	repr := c.Heap.Repr
	switch g := g.(type) {
	case *constG:
		s.raw(w)
	case *refG:
		if !code.IsBoxedValue(repr, w) {
			s.raw(w)
			return
		}
		if s.enter(w, 1) {
			s.walk(g.elem, c.Heap.Field(w, 0))
		}
	case *tupleG:
		if !code.IsBoxedValue(repr, w) {
			s.raw(w)
			return
		}
		if s.enter(w, len(g.fields)) {
			for i, f := range g.fields {
				s.walk(f, c.Heap.Field(w, i))
			}
		}
	case *dataG:
		for {
			if !code.IsBoxedValue(repr, w) {
				s.raw(w)
				return
			}
			off, tag := 0, 0
			if g.layout.HasTagWord {
				tag = int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
				off = 1
			}
			fields := g.layout.Boxed[tag].Fields
			if !s.enter(w, off+len(fields)) {
				return
			}
			if off == 1 {
				s.raw(c.Heap.Field(w, 0))
			}
			tailField := -1
			for i, fd := range fields {
				fgc := c.FromDesc(fd, g.args)
				if fgc == g && i == len(fields)-1 {
					tailField = off + i
					continue
				}
				s.walk(fgc, c.Heap.Field(w, off+i))
			}
			if tailField < 0 {
				return
			}
			w = c.Heap.Field(w, tailField)
		}
	case *arrowG:
		if !code.IsBoxedValue(repr, w) {
			s.raw(w)
			return
		}
		fidx := int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
		fi := c.Prog.Funcs[fidx]
		size := 1 + fi.NumRepWords + len(fi.Captures)
		if !s.enter(w, size) {
			return
		}
		// Code index and representation words are immediates (the collector
		// never traces them); captures are walked through their descriptors.
		for i := 0; i <= fi.NumRepWords; i++ {
			s.raw(c.Heap.Field(w, i))
		}
		env := c.closureEnv(fi, w, g)
		for i, capDesc := range fi.Captures {
			s.walk(c.FromDesc(capDesc, env), c.Heap.Field(w, 1+fi.NumRepWords+i))
		}
	default:
		panic("gc: signer: unknown TypeGC node")
	}
}

// walkTagged serializes by headers: the tagged heap carries its own
// layout, so the signature is the header's field count plus the fields,
// with boxed fields renamed exactly as in the typed walk. The last field
// iterates rather than recurses so list spines do not overflow the stack.
func (s *signer) walkTagged(w code.Word) {
	c := s.c
	for {
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			s.raw(w)
			return
		}
		n := c.Heap.ObjLen(w)
		if !s.enter(w, n) {
			return
		}
		for i := 0; i < n-1; i++ {
			s.walkTagged(c.Heap.Field(w, i))
		}
		if n == 0 {
			return
		}
		w = c.Heap.Field(w, n-1)
	}
}

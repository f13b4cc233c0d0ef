package gc

import (
	"fmt"
	"strings"

	"tagfree/internal/code"
)

// Post-collection verification, GC side. heap.VerifyHeap checks the
// discipline's structural invariants (tiling, forwarding reset, free-list
// disjointness); this file adds the semantic half: re-resolve every root
// the collector just traced — globals and each task's frame slots — and
// re-walk the reachable structure read-only, checking that every pointer
// lands on a live block of exactly the extent its type says it has. A
// violation here means the collector retained a dangling pointer, copied
// an object with the wrong extent, or left a root pointing into garbage.
//
// Verification runs outside the measured pause (the invariants hold until
// the mutator allocates again) and only under Collector.Verify. A corrupt
// heap is not a per-task condition — every task shares it — so violations
// panic with a *VerifyError rather than faulting one task.

// VerifyError aggregates heap-verifier violations from one collection.
type VerifyError struct {
	Collection int64
	Violations []error
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heap verification failed after collection %d (%d violations)", e.Collection, len(e.Violations))
	for i, v := range e.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", v)
	}
	return b.String()
}

// verifyCollection checks the just-finished collection's invariants,
// structural (heap.VerifyHeap) and semantic (typed re-walk of all roots).
func (c *Collector) verifyCollection(tasks []TaskRoots, globals []code.Word) {
	errs := c.Heap.VerifyHeap()
	if c.Strat != StratTagged {
		v := &verifier{c: c, seen: map[code.Word]bool{}}
		for i, g := range c.Prog.Globals {
			v.where = fmt.Sprintf("global %d (%s)", i, g.Name)
			v.walk(c.FromDesc(g.Desc, nil), globals[i])
		}
		var st Stats // resolution stats of the re-walk are discarded
		c.sc.reset() // the collection's own windows are dead by now
		for i := range tasks {
			for _, j := range c.taskJobs(tasks[i], &st) {
				v.where = fmt.Sprintf("task %d stack slot %d", i, j.idx)
				v.walk(j.g, tasks[i].Stack[j.idx])
			}
		}
		errs = append(errs, v.errs...)
	}
	if len(errs) > 0 {
		panic(&VerifyError{Collection: c.Heap.Stats.Collections, Violations: errs})
	}
}

// verifier re-walks reachable structure read-only. seen keys on the
// pointer word: objects never move between EndGC and the walk, and each
// object is checked through every root type that reaches it first.
type verifier struct {
	c     *Collector
	seen  map[code.Word]bool
	where string
	errs  []error
}

func (v *verifier) checkBlock(w code.Word, n int) bool {
	if v.seen[w] {
		return false
	}
	v.seen[w] = true
	if err := v.c.Heap.CheckLive(w, n); err != nil {
		v.errs = append(v.errs, fmt.Errorf("reachable from %s: %v", v.where, err))
		return false
	}
	return true
}

// walk mirrors markValue's structure: same type dispatch, same dataG
// tail-spine iteration, but checking extents instead of setting marks.
func (v *verifier) walk(g TypeGC, w code.Word) {
	c := v.c
	repr := c.Heap.Repr
	switch g := g.(type) {
	case *constG:
		return
	case *refG:
		if !code.IsBoxedValue(repr, w) || !v.checkBlock(w, 1) {
			return
		}
		v.walk(g.elem, c.Heap.Field(w, 0))
	case *tupleG:
		if !code.IsBoxedValue(repr, w) || !v.checkBlock(w, len(g.fields)) {
			return
		}
		for i, f := range g.fields {
			v.walk(f, c.Heap.Field(w, i))
		}
	case *dataG:
		for {
			if !code.IsBoxedValue(repr, w) {
				return
			}
			off, tag := 0, 0
			if g.layout.HasTagWord {
				tag = int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
				off = 1
			}
			if tag < 0 || tag >= len(g.layout.Boxed) {
				v.errs = append(v.errs, fmt.Errorf("reachable from %s: constructor tag %d outside layout (%d boxed forms)",
					v.where, tag, len(g.layout.Boxed)))
				return
			}
			fields := g.layout.Boxed[tag].Fields
			if !v.checkBlock(w, off+len(fields)) {
				return
			}
			tailField := -1
			for i, fd := range fields {
				fgc := c.FromDesc(fd, g.args)
				if fgc == g && i == len(fields)-1 {
					tailField = off + i
					continue
				}
				v.walk(fgc, c.Heap.Field(w, off+i))
			}
			if tailField < 0 {
				return
			}
			w = c.Heap.Field(w, tailField)
		}
	case *arrowG:
		if !code.IsBoxedValue(repr, w) {
			return
		}
		fidx := int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
		if fidx < 0 || fidx >= len(c.Prog.Funcs) {
			v.errs = append(v.errs, fmt.Errorf("reachable from %s: closure code index %d outside program (%d functions)",
				v.where, fidx, len(c.Prog.Funcs)))
			return
		}
		fi := c.Prog.Funcs[fidx]
		size := 1 + fi.NumRepWords + len(fi.Captures)
		if !v.checkBlock(w, size) {
			return
		}
		env := c.closureEnv(fi, w, g)
		for i, capDesc := range fi.Captures {
			v.walk(c.FromDesc(capDesc, env), c.Heap.Field(w, 1+fi.NumRepWords+i))
		}
	default:
		panic("gc: verifier: unknown TypeGC node")
	}
}

// Package gc implements garbage collection for the simulated heap under
// four strategies:
//
//   - Compiled (the paper's contribution): per-call-site frame routines,
//     prebuilt from compiler-emitted frame maps, trace exactly the live
//     slots; polymorphic frames receive type_gc_routines from their
//     caller's routine during an oldest→newest stack walk (§3).
//   - Interp (Branquart & Lewi 1970 / Britton 1975): the same maps are
//     serialized to compact byte descriptors and decoded during every
//     collection by a generic walker — smaller metadata, slower pauses.
//   - Appel (Appel 1989): one descriptor per procedure covering every
//     variable (no liveness), with polymorphic type resolution re-walking
//     the dynamic chain per frame (no incremental pass) — the design the
//     paper critiques in §1.1.1.
//   - Tagged: the classical baseline; per-word tag bits and object headers
//     drive a Cheney scan with no compiler metadata at all.
//
// TypeGC values are the runtime incarnation of the paper's
// type_gc_routines: structured, memoized closures (Figure 3's
// trace_list_of(const_gc) sharing) that both trace values and decompose
// into their components so callees can derive their type parameters from a
// call site's package (Figure 4).
package gc

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// TypeGC traces values of one type and decomposes into component routines.
type TypeGC interface {
	// Trace forwards the value (copying any heap structure it owns) and
	// returns the new value.
	Trace(c *Collector, w code.Word) code.Word
	// Child returns the component routine selected by a derivation step.
	Child(step code.PathStep) TypeGC
	// gcID is the node's unique id within its builder (memoization key).
	gcID() int
}

// builder hash-conses TypeGC nodes, mirroring the paper's observation that
// type_gc_routine closures for equal types are shared (Figure 3).
type builder struct {
	nextID int
	cache  map[string]TypeGC
	// Built counts constructor calls that created a new node (experiment
	// instrumentation: "type_gc closures constructed").
	Built int64
}

func newBuilder() *builder {
	return &builder{cache: map[string]TypeGC{}}
}

func (b *builder) memo(key string, mk func(id int) TypeGC) TypeGC {
	if g, ok := b.cache[key]; ok {
		return g
	}
	b.nextID++
	g := mk(b.nextID)
	b.cache[key] = g
	b.Built++
	return g
}

// Const returns the routine for unboxed values (const_gc in the paper).
func (b *builder) Const() TypeGC {
	return b.memo("const", func(id int) TypeGC { return &constG{id: id} })
}

// Ref returns the routine for reference cells.
func (b *builder) Ref(elem TypeGC) TypeGC {
	return b.memo(fmt.Sprintf("ref:%d", elem.gcID()), func(id int) TypeGC {
		return &refG{id: id, elem: elem}
	})
}

// Tuple returns the routine for tuples.
func (b *builder) Tuple(fields []TypeGC) TypeGC {
	key := "tup"
	for _, f := range fields {
		key += fmt.Sprintf(":%d", f.gcID())
	}
	return b.memo(key, func(id int) TypeGC {
		return &tupleG{id: id, fields: fields}
	})
}

// Data returns the routine for a datatype instantiation (trace_list_of and
// friends).
func (b *builder) Data(layoutID int, layout *code.DataLayout, args []TypeGC) TypeGC {
	key := fmt.Sprintf("data:%d", layoutID)
	for _, a := range args {
		key += fmt.Sprintf(":%d", a.gcID())
	}
	return b.memo(key, func(id int) TypeGC {
		return &dataG{id: id, layoutID: layoutID, layout: layout, args: args}
	})
}

// Arrow returns the routine for function values (Figure 4): it traces
// closures through their code pointers and offers dom/cod decomposition.
func (b *builder) Arrow(dom, cod TypeGC) TypeGC {
	return b.memo(fmt.Sprintf("arr:%d:%d", dom.gcID(), cod.gcID()), func(id int) TypeGC {
		return &arrowG{id: id, dom: dom, cod: cod}
	})
}

// FromDesc builds the routine for a compiler descriptor, resolving TDVar
// nodes against env (a frame's or datatype's type arguments).
func (c *Collector) FromDesc(d *code.TypeDesc, env []TypeGC) TypeGC {
	b := c.b
	switch d.Kind {
	case code.TDConst, code.TDOpaque:
		return b.Const()
	case code.TDVar:
		if d.Index < len(env) && env[d.Index] != nil {
			return env[d.Index]
		}
		return b.Const()
	case code.TDRef:
		return b.Ref(c.FromDesc(d.Args[0], env))
	case code.TDTuple:
		fields := make([]TypeGC, len(d.Args))
		for i, a := range d.Args {
			fields[i] = c.FromDesc(a, env)
		}
		return b.Tuple(fields)
	case code.TDData:
		args := make([]TypeGC, len(d.Args))
		for i, a := range d.Args {
			args[i] = c.FromDesc(a, env)
		}
		return b.Data(d.Index, c.Prog.Data[d.Index], args)
	case code.TDArrow:
		return b.Arrow(c.FromDesc(d.Args[0], env), c.FromDesc(d.Args[1], env))
	}
	panic("FromDesc: unknown descriptor kind")
}

// FromRep builds the routine for a runtime type-rep handle (stored in a
// closure's rep words at creation).
func (c *Collector) FromRep(h int) TypeGC {
	e := c.Prog.Reps.Entry(h)
	switch e.Kind {
	case code.TDConst, code.TDOpaque:
		return c.b.Const()
	case code.TDRef:
		return c.b.Ref(c.FromRep(e.Children[0]))
	case code.TDTuple:
		fields := make([]TypeGC, len(e.Children))
		for i, ch := range e.Children {
			fields[i] = c.FromRep(ch)
		}
		return c.b.Tuple(fields)
	case code.TDData:
		args := make([]TypeGC, len(e.Children))
		for i, ch := range e.Children {
			args[i] = c.FromRep(ch)
		}
		return c.b.Data(e.Index, c.Prog.Data[e.Index], args)
	case code.TDArrow:
		return c.b.Arrow(c.FromRep(e.Children[0]), c.FromRep(e.Children[1]))
	}
	panic("FromRep: unknown rep kind")
}

// ApplyPath walks a derivation path through a routine's components.
func ApplyPath(g TypeGC, path []code.PathStep) TypeGC {
	for _, s := range path {
		g = g.Child(s)
	}
	return g
}

// ---------------------------------------------------------------------------
// Node implementations.
// ---------------------------------------------------------------------------

type constG struct{ id int }

func (g *constG) gcID() int { return g.id }

// Trace on unboxed values is the identity (const_gc).
func (g *constG) Trace(c *Collector, w code.Word) code.Word { return w }

// Child of an opaque routine is opaque (defensive; parametric positions).
func (g *constG) Child(code.PathStep) TypeGC { return g }

type refG struct {
	id   int
	elem TypeGC
}

func (g *refG) gcID() int { return g.id }

func (g *refG) Child(step code.PathStep) TypeGC { return g.elem }

func (g *refG) Trace(c *Collector, w code.Word) code.Word {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return w
	}
	nw, fresh := c.Heap.VisitObject(w, 1)
	if !fresh {
		return nw
	}
	c.Stats.ObjectsCopied++
	c.setField(nw, 0, g.elem.Trace(c, c.Heap.Field(nw, 0)), g.elem)
	return nw
}

type tupleG struct {
	id     int
	fields []TypeGC
}

func (g *tupleG) gcID() int { return g.id }

func (g *tupleG) Child(step code.PathStep) TypeGC { return g.fields[step.Index] }

func (g *tupleG) Trace(c *Collector, w code.Word) code.Word {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return w
	}
	nw, fresh := c.Heap.VisitObject(w, len(g.fields))
	if !fresh {
		return nw
	}
	c.Stats.ObjectsCopied++
	for i, f := range g.fields {
		c.setField(nw, i, f.Trace(c, c.Heap.Field(nw, i)), f)
	}
	return nw
}

type dataG struct {
	id       int
	layoutID int
	layout   *code.DataLayout
	args     []TypeGC
}

func (g *dataG) gcID() int { return g.id }

func (g *dataG) Child(step code.PathStep) TypeGC { return g.args[step.Index] }

// Trace copies a datatype value. Recursive tail fields whose routine is g
// itself (list spines, tree right-spines) are traced iteratively so a long
// list does not consume host stack proportional to its length.
func (g *dataG) Trace(c *Collector, w code.Word) code.Word {
	head := code.Word(0)
	haveHead := false
	var prevPtr code.Word // last copied object; its tail field awaits a link
	prevField := -1
	link := func(v code.Word) {
		if prevField >= 0 {
			c.setField(prevPtr, prevField, v, g) // the tail field's routine is g itself
		} else if !haveHead {
			head = v
			haveHead = true
		}
	}
	for {
		if !code.IsBoxedValue(c.Heap.Repr, w) {
			link(w)
			return head0(head, haveHead, w)
		}
		off := 0
		tag := 0
		if g.layout.HasTagWord {
			tag = int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0)))
			off = 1
		}
		fields := g.layout.Boxed[tag].Fields
		nw, fresh := c.Heap.VisitObject(w, off+len(fields))
		link(nw)
		if !fresh {
			return head0(head, haveHead, nw)
		}
		c.Stats.ObjectsCopied++

		tailField := -1
		for i, fd := range fields {
			fgc := c.FromDesc(fd, g.args)
			if fgc == g && i == len(fields)-1 {
				tailField = off + i
				continue
			}
			c.setField(nw, off+i, fgc.Trace(c, c.Heap.Field(nw, off+i)), fgc)
		}
		if tailField < 0 {
			return head0(head, haveHead, nw)
		}
		prevPtr, prevField = nw, tailField
		w = c.Heap.Field(nw, tailField)
	}
}

// head0 returns the chain head, or the sole value when nothing was copied
// into the chain yet.
func head0(head code.Word, haveHead bool, v code.Word) code.Word {
	if haveHead {
		return head
	}
	return v
}

type arrowG struct {
	id       int
	dom, cod TypeGC
}

func (g *arrowG) gcID() int { return g.id }

func (g *arrowG) Child(step code.PathStep) TypeGC {
	if step.Kind == 0 {
		return g.dom
	}
	return g.cod
}

// Trace copies a closure. The function identity comes from the code
// pointer (field 0), exactly the paper's "word preceding the code" lookup
// (§2.2); capture types resolve against the function's type environment,
// derived from this routine's own dom/cod (Figure 4) and from rep words
// stored at creation.
func (g *arrowG) Trace(c *Collector, w code.Word) code.Word {
	if !code.IsBoxedValue(c.Heap.Repr, w) {
		return w // null placeholder of a not-yet-patched recursive closure
	}
	fidx := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(w, 0)))
	fi := c.Prog.Funcs[fidx]
	size := 1 + fi.NumRepWords + len(fi.Captures)
	nw, fresh := c.Heap.VisitObject(w, size)
	if !fresh {
		return nw
	}
	c.Stats.ObjectsCopied++

	env := c.closureEnv(fi, nw, g)
	for i, capDesc := range fi.Captures {
		off := 1 + fi.NumRepWords + i
		fgc := c.FromDesc(capDesc, env)
		c.setField(nw, off, fgc.Trace(c, c.Heap.Field(nw, off)), fgc)
	}
	return nw
}

// closureEnv reconstructs a closure's type environment from the reference
// routine (derivable entries) and its stored rep words.
func (c *Collector) closureEnv(fi *code.FuncInfo, clos code.Word, ref TypeGC) []TypeGC {
	if fi.TypeEnvLen == 0 {
		return nil
	}
	env := make([]TypeGC, fi.TypeEnvLen)
	for i := 0; i < fi.TypeEnvLen; i++ {
		if fi.RepWord != nil && fi.RepWord[i] >= 0 {
			h := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(clos, 1+fi.RepWord[i])))
			env[i] = c.FromRep(h)
			continue
		}
		if fi.Derivs != nil && fi.Derivs[i] != nil && ref != nil {
			env[i] = ApplyPath(ref, fi.Derivs[i])
			continue
		}
		env[i] = c.b.Const()
	}
	return env
}

// Silence the unused-import check for heap in this file (used by siblings).
var _ = heap.Stats{}

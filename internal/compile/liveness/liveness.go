// Package liveness computes, for every call and allocation site, the set of
// frame slots that are live — the paper's §5.2 optimization. A slot that is
// dead at a site is omitted from the site's frame map, so the collector
// neither traces it (retaining garbage) nor risks interpreting a stale
// word as a pointer.
//
// The analysis is a backward pass over the ANF tree. Because slots are
// assigned once and every use is dominated by its definition, a slot live
// at a site is necessarily initialized there: the frame maps need no
// separate definedness tracking. (The contrast is Appel-style per-procedure
// descriptors, which must assume every variable exists and is initialized —
// forcing frame zero-fill at entry; the interpreter models that cost in
// Appel mode.)
//
// Allocation sites keep their operand slots live: the abstract machine
// re-reads operands after a potential collection, so those slots must be in
// the site's map for their pointers to be updated by a moving collector.
// Call sites do not: arguments are copied into the callee's frame (which is
// traced) before the callee can allocate, matching the paper's append
// example where "no local variable or parameter is needed anymore".
package liveness

import (
	"sort"

	"tagfree/internal/ir"
)

// slotSet is a set of slots keyed by index.
type slotSet map[int]*ir.Slot

func (s slotSet) clone() slotSet {
	c := make(slotSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s slotSet) addAtom(a ir.Atom) {
	if sl, ok := a.(*ir.ASlot); ok {
		s[sl.Slot.Idx] = sl.Slot
	}
}

func (s slotSet) union(o slotSet) slotSet {
	out := s.clone()
	for k, v := range o {
		out[k] = v
	}
	return out
}

// joinCtx carries the enclosing conditional's join target for EJoin nodes
// and inherit-join conditionals.
type joinCtx struct {
	dst  *ir.Slot
	live slotSet // live set at the join continuation
}

// Analyze returns, for each call/allocation site id of f, the slots live
// across that site, sorted by slot index.
func Analyze(f *ir.Func) [][]*ir.Slot {
	liveAt := make([]slotSet, f.NumCallSites)
	analyzeExpr(f.Body, nil, liveAt)

	out := make([][]*ir.Slot, f.NumCallSites)
	for i, set := range liveAt {
		slots := make([]*ir.Slot, 0, len(set))
		for _, s := range set {
			slots = append(slots, s)
		}
		sort.Slice(slots, func(a, b int) bool { return slots[a].Idx < slots[b].Idx })
		out[i] = slots
	}
	return out
}

// analyzeExpr returns the live set at the entry of e.
func analyzeExpr(e ir.Expr, jc *joinCtx, liveAt []slotSet) slotSet {
	switch e := e.(type) {
	case *ir.ERet:
		s := slotSet{}
		s.addAtom(e.A)
		return s

	case *ir.EJoin:
		if jc == nil {
			// A join with no context is a lowering bug; treat as return.
			s := slotSet{}
			s.addAtom(e.A)
			return s
		}
		s := jc.live.clone()
		if jc.dst != nil {
			delete(s, jc.dst.Idx)
		}
		s.addAtom(e.A)
		return s

	case *ir.EMatchFail:
		return slotSet{}

	case *ir.ELet:
		after := analyzeExpr(e.Cont, jc, liveAt)
		live := after.clone()
		delete(live, e.Dst.Idx)

		switch r := e.Rhs.(type) {
		case *ir.RCall:
			if r.CanGC {
				liveAt[r.Site] = live.clone()
			}
		case *ir.RCallClos:
			if r.CanGC {
				liveAt[r.Site] = live.clone()
			}
		case *ir.RRef:
			m := live.clone()
			m.addAtom(r.Init)
			liveAt[r.Site] = m
		case *ir.RTuple:
			m := live.clone()
			for _, a := range r.Elems {
				m.addAtom(a)
			}
			liveAt[r.Site] = m
		case *ir.RCtor:
			m := live.clone()
			for _, a := range r.Args {
				m.addAtom(a)
			}
			liveAt[r.Site] = m
		case *ir.RClosure:
			m := live.clone()
			for _, a := range r.Captures {
				m.addAtom(a)
			}
			liveAt[r.Site] = m
		}
		for _, a := range ir.RhsAtoms(e.Rhs) {
			live.addAtom(a)
		}
		return live

	case *ir.ECond:
		inner := jc
		var contLive slotSet
		if e.Dst != nil || e.Cont != nil {
			contLive = analyzeExpr(e.Cont, jc, liveAt)
			inner = &joinCtx{dst: e.Dst, live: contLive}
		}
		thenLive := analyzeExpr(e.Then, inner, liveAt)
		elseLive := analyzeExpr(e.Else, inner, liveAt)
		live := thenLive.union(elseLive)
		live.addAtom(e.Cond)
		return live
	}
	return slotSet{}
}

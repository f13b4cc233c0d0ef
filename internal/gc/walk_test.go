package gc

import (
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// TestFrameChainOrdering builds a synthetic stack and checks the
// oldest-first chain and per-frame blocked pcs (the callee's stored return
// address, the task pc for the newest frame).
func TestFrameChainOrdering(t *testing.T) {
	// Three frames at 0, 10, 24; dynamic links chain newest→oldest.
	stack := make([]code.Word, 64)
	stack[0] = -1 // root dynlink
	stack[1] = -1 // root retaddr
	stack[10] = 0 // frame1 dynlink → root
	stack[11] = 100
	stack[24] = 10 // frame2 dynlink → frame1
	stack[25] = 200
	fps, pcs := frameChain(TaskRoots{Stack: stack, FP: 24, PC: 300})
	wantFPs := []int{0, 10, 24}
	wantPCs := []int{100, 200, 300}
	for i := range wantFPs {
		if fps[i] != wantFPs[i] || pcs[i] != wantPCs[i] {
			t.Fatalf("frame %d: fp=%d pc=%d, want fp=%d pc=%d",
				i, fps[i], pcs[i], wantFPs[i], wantPCs[i])
		}
	}
}

// TestSiteAtReadsGCWord checks the Figure-1 lookup against a hand-built
// code stream.
func TestSiteAtReadsGCWord(t *testing.T) {
	prog := listProgram(code.ReprTagFree)
	// A call at pc 0: [OpCall][dst][fidx][gcword][nargs].
	prog.Code = []code.Word{code.OpCall, 0, 0, 1, 0,
		code.OpMkTuple, 0, 0 /*gcw*/, 0}
	prog.Funcs = []*code.FuncInfo{{Name: "f"}}
	prog.Sites = []*code.SiteInfo{
		{Func: 0, Kind: code.SiteAlloc},
		{Func: 0, Kind: code.SiteCall},
	}
	h := heap.New(code.ReprTagFree, 64)
	c, err := New(prog, h, StratCompiled)
	if err != nil {
		t.Fatal(err)
	}
	idx, si := c.siteAt(0)
	if idx != 1 || si.Kind != code.SiteCall {
		t.Fatalf("call site: idx=%d kind=%d", idx, si.Kind)
	}
	idx, si = c.siteAt(5)
	if idx != 0 || si.Kind != code.SiteAlloc {
		t.Fatalf("alloc site: idx=%d kind=%d", idx, si.Kind)
	}
}

// TestOutgoingPackages checks package construction for direct and
// closure-call sites.
func TestOutgoingPackages(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 256)
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}

	direct := &code.SiteInfo{Kind: code.SiteCall,
		CalleeInst: []*code.TypeDesc{intList, {Kind: code.TDVar, Index: 0}}}
	targs := []TypeGC{c.b.Const()}
	pkg := c.outgoing(direct, targs)
	if len(pkg.direct) != 2 {
		t.Fatalf("direct package has %d entries", len(pkg.direct))
	}
	if pkg.direct[0] != c.FromDesc(intList, nil) {
		t.Error("ground instantiation should resolve to the shared routine")
	}
	if pkg.direct[1] != c.b.Const() {
		t.Error("variable instantiation should resolve against the caller's args")
	}

	closSite := &code.SiteInfo{Kind: code.SiteCallC,
		SiteType: &code.TypeDesc{Kind: code.TDArrow,
			Args: []*code.TypeDesc{{Kind: code.TDConst}, intList}}}
	pkg = c.outgoing(closSite, nil)
	if pkg.arrow == nil {
		t.Fatal("closure-call package missing")
	}
	if pkg.arrow.Child(code.PathStep{Kind: 1}) != c.FromDesc(intList, nil) {
		t.Error("arrow package cod decomposition wrong")
	}
}

// TestEnvTypeArgsFromRepWords builds a closure object with a stored rep
// word and checks the environment reconstruction.
func TestEnvTypeArgsFromRepWords(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 256)
	// Function metadata: one type-env entry, stored at rep word 0.
	fi := &code.FuncInfo{
		Name:        "thunk",
		TypeEnvLen:  1,
		RepWord:     []int{0},
		NumRepWords: 1,
	}
	intListRep := c.Prog.Reps.Intern(code.TDData, 0,
		[]int{c.Prog.Reps.Intern(code.TDConst, 0, nil)})
	clos := c.Heap.MustAlloc(2)
	c.Heap.SetField(clos, 0, code.EncodeInt(code.ReprTagFree, 7)) // code ptr
	c.Heap.SetField(clos, 1, code.EncodeInt(code.ReprTagFree, int64(intListRep)))

	env := c.envTypeArgs(fi, clos, nil)
	if len(env) != 1 {
		t.Fatalf("env has %d entries", len(env))
	}
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	if env[0] != c.FromDesc(intList, nil) {
		t.Error("rep word did not reconstruct the stored type")
	}
}

// TestEnvTypeArgsFromDerivation checks derivation-path reconstruction
// against a Figure-4 package.
func TestEnvTypeArgsFromDerivation(t *testing.T) {
	c := newTestCollector(t, code.ReprTagFree, StratCompiled, 256)
	fi := &code.FuncInfo{
		Name:       "mapper",
		TypeEnvLen: 1,
		RepWord:    []int{-1},
		Derivs:     [][]code.PathStep{{{Kind: 0}, {Kind: 2, Index: 0}}}, // dom → elem
	}
	intList := &code.TypeDesc{Kind: code.TDData, Index: 0,
		Args: []*code.TypeDesc{{Kind: code.TDConst}}}
	ref := c.FromDesc(&code.TypeDesc{Kind: code.TDArrow,
		Args: []*code.TypeDesc{intList, {Kind: code.TDConst}}}, nil)

	clos := c.Heap.MustAlloc(1)
	c.Heap.SetField(clos, 0, code.EncodeInt(code.ReprTagFree, 3))
	env := c.envTypeArgs(fi, clos, ref)
	if env[0] != c.b.Const() {
		t.Error("derivation dom→elem should reach const_gc for an int list domain")
	}
}

package tasking

import (
	"sort"

	"tagfree/internal/code"
)

// The interpreter does not run code.Program.Code itself. Prog.Code is the
// paper's layout — atoms packed with code.EncodeAtom, a gc_word embedded in
// every call and allocation — and everything outside the loop keeps reading
// it: collectors take the gc_word at a return address, the write barrier
// looks up StoreDescs by pc, faults report pcs, and disassembly prints it.
// The loop runs a private copy decoded once per group, aligned to the same
// pcs, so a return address, a jump target or a fault pc means the same
// instruction in both.
//
// In the copy:
//
//   - an atom is a frame offset o >= 0 (slot i is o = i+2, past the
//     dynamic link and return address) or ^k into the group's far table,
//     which holds the constants followed by the globals;
//   - a destination slot is its frame offset, and OpSetGlobal's global
//     index is its far index;
//   - a call's gc_word slot (pc+3 for both call forms; OpCallC's closure
//     and argument atoms are swapped around it) holds the pc the call
//     returns to, so OpRet needs no instruction-length decode;
//   - an allocation's gc_word slot holds the object's field count; OpMkBox
//     keeps its tag encoded as a value (or -1 when untagged) and OpMkClos
//     its function index encoded as a value;
//   - the opcode word of the first instruction of a frequent pair may be a
//     fused opcode that runs both. The second instruction stays intact at
//     its own pc, for jumps that land on it and for a quantum that ends
//     between the two.

// Fused opcodes, numbered after the last code.Op. Each runs its first
// instruction, then — unless that used up the quantum — the second: the
// next jz (compare→jz, whose jz tests the compare's destination), the next
// jmp (move→jmp), the next move (ldfld→move), or the ret at the jump
// target (jmp→ret). A move→jmp whose jump lands on a ret runs that
// ret as a third. Calls, allocations and every other safe point are never
// fused.
const (
	opEqJz = code.OpMatchFail + 1 + iota
	opNeJz
	opLtJz
	opLeJz
	opGtJz
	opGeJz
	opIsBoxedJz
	opTagIsJz
	opMoveJmp
	opMoveJmpRet
	opLdFldMove
	opJmpRet
)

// funcInfo is what a call needs of its callee to push the frame inline.
type funcInfo struct {
	entry   int
	size    int // frame words: dynamic link, return address, slots
	nparams int
	repBase int // frame slot of the first hidden rep argument
	nslots  int
}

// decoded is a group's executable form of its program.
type decoded struct {
	code []code.Word // the pc-aligned copy of Prog.Code the loop runs
	fns  []funcInfo
	// far holds the constants, then the globals (Group.Globals aliases its
	// tail, so the collector's global roots are the words the loop reads).
	far []code.Word
	// entries are the function entry pcs in ascending order, and
	// entryFunc the function index at each: a pc's function is the last
	// entry at or below it.
	entries   []int
	entryFunc []int
}

// decode builds the executable copy of prog.
func decode(prog *code.Program) *decoded {
	nc := len(prog.Consts)
	d := &decoded{
		code: make([]code.Word, len(prog.Code)),
		fns:  make([]funcInfo, len(prog.Funcs)),
		far:  make([]code.Word, nc+len(prog.Globals)),
	}
	copy(d.far, prog.Consts)
	order := make([]int, len(prog.Funcs))
	for i, fi := range prog.Funcs {
		d.fns[i] = funcInfo{entry: fi.Entry, size: 2 + fi.NSlots, nparams: fi.NParams, repBase: fi.RepArgBase, nslots: fi.NSlots}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return prog.Funcs[order[a]].Entry < prog.Funcs[order[b]].Entry })
	for _, i := range order {
		d.entries = append(d.entries, prog.Funcs[i].Entry)
		d.entryFunc = append(d.entryFunc, i)
	}

	c, dc := prog.Code, d.code
	copy(dc, c)
	atom := func(w code.Word) code.Word {
		kind, idx := code.DecodeAtom(w)
		switch kind {
		case code.AtomSlot:
			return code.Word(idx + 2)
		case code.AtomConst:
			return ^code.Word(idx)
		}
		return ^code.Word(nc + idx)
	}
	atoms := func(from, n int) {
		for i := from; i < from+n; i++ {
			dc[i] = atom(c[i])
		}
	}
	var pcs []int
	for pc := 0; pc < len(c); {
		op := c[pc]
		if !known(op) {
			dc[pc] = -1 // the loop traps here as on an illegal opcode
			break
		}
		pcs = append(pcs, pc)
		switch op {
		case code.OpRet, code.OpJz:
			atoms(pc+1, 1)
		case code.OpMove, code.OpNeg, code.OpTNeg, code.OpNot, code.OpIsBoxed:
			dc[pc+1] = c[pc+1] + 2
			atoms(pc+2, 1)
		case code.OpAdd, code.OpSub, code.OpMul, code.OpDiv, code.OpMod,
			code.OpTAdd, code.OpTSub, code.OpTMul, code.OpTDiv, code.OpTMod,
			code.OpEq, code.OpNe, code.OpLt, code.OpLe, code.OpGt, code.OpGe:
			dc[pc+1] = c[pc+1] + 2
			atoms(pc+2, 2)
		case code.OpTagIs, code.OpLdFld:
			dc[pc+1] = c[pc+1] + 2
			atoms(pc+2, 1)
		case code.OpBuiltin:
			dc[pc+1] = c[pc+1] + 2
			atoms(pc+3, 1)
		case code.OpStFld:
			atoms(pc+1, 1)
			atoms(pc+3, 1)
		case code.OpCall:
			dc[pc+1] = c[pc+1] + 2
			dc[pc+3] = code.Word(pc + code.InstrLen(c, pc))
			atoms(pc+5, int(c[pc+4]))
		case code.OpCallC:
			dc[pc+1] = c[pc+1] + 2
			dc[pc+2] = atom(c[pc+3])
			dc[pc+3] = code.Word(pc + code.InstrLen(c, pc))
			dc[pc+4] = atom(c[pc+4])
		case code.OpMkRef:
			dc[pc+1] = c[pc+1] + 2
			dc[pc+2] = 1
			atoms(pc+3, 1)
		case code.OpMkTuple:
			dc[pc+1] = c[pc+1] + 2
			dc[pc+2] = c[pc+3]
			atoms(pc+4, int(c[pc+3]))
		case code.OpMkBox:
			dc[pc+1] = c[pc+1] + 2
			dc[pc+2] = c[pc+4]
			if tag := c[pc+3]; tag >= 0 {
				dc[pc+2]++
				dc[pc+3] = code.EncodeInt(prog.Repr, tag)
			}
			atoms(pc+5, int(c[pc+4]))
		case code.OpMkClos:
			nrep, ncap := int(c[pc+5]), int(c[pc+6])
			dc[pc+1] = c[pc+1] + 2
			dc[pc+2] = code.Word(1 + nrep + ncap)
			dc[pc+3] = code.EncodeInt(prog.Repr, c[pc+3])
			atoms(pc+7, nrep+ncap)
		case code.OpMkRep:
			dc[pc+1] = c[pc+1] + 2
			atoms(pc+5, int(c[pc+4]))
		case code.OpSetGlobal:
			dc[pc+1] = code.Word(nc) + c[pc+1]
			atoms(pc+2, 1)
		}
		pc += code.InstrLen(c, pc)
	}
	for _, pc := range pcs {
		if f := fuse(c, pc); f != 0 {
			dc[pc] = f
		}
	}
	return d
}

// known reports whether op is an opcode of the instruction set.
func known(op code.Op) bool {
	return op >= code.OpHalt && op <= code.OpMatchFail
}

// fuse returns the fused opcode for the pair starting at pc, or 0.
func fuse(c []code.Word, pc int) code.Op {
	next := func(off int, op code.Op) bool { return pc+off < len(c) && c[pc+off] == op }
	ret := func(target int) bool { return target >= 0 && target < len(c) && c[target] == code.OpRet }
	switch c[pc] {
	case code.OpEq, code.OpNe, code.OpLt, code.OpLe, code.OpGt, code.OpGe:
		if next(4, code.OpJz) && c[pc+5] == code.EncodeAtom(code.AtomSlot, int(c[pc+1])) {
			return opEqJz + c[pc] - code.OpEq // same order as the compares
		}
	case code.OpTagIs:
		if next(4, code.OpJz) && c[pc+5] == code.EncodeAtom(code.AtomSlot, int(c[pc+1])) {
			return opTagIsJz
		}
	case code.OpIsBoxed:
		if next(3, code.OpJz) && c[pc+4] == code.EncodeAtom(code.AtomSlot, int(c[pc+1])) {
			return opIsBoxedJz
		}
	case code.OpMove:
		if next(3, code.OpJmp) {
			if ret(int(c[pc+4])) {
				return opMoveJmpRet
			}
			return opMoveJmp
		}
	case code.OpLdFld:
		if next(4, code.OpMove) {
			return opLdFldMove
		}
	case code.OpJmp:
		if ret(int(c[pc+1])) {
			return opJmpRet
		}
	}
	return 0
}

// funcAt returns the index of the function whose code holds pc, or -1.
func (d *decoded) funcAt(pc int) int {
	i := sort.SearchInts(d.entries, pc+1) - 1
	if i < 0 {
		return -1
	}
	return d.entryFunc[i]
}

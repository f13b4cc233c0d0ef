// Package vm runs one compiled MinML program against the simulated heap.
//
// A single-task program is a tasking group of one task (internal/tasking):
// the same interpreter, frame layout, collector calls and recovery ladder
// as a multi-task run, minus what having no sibling makes unnecessary. This
// package is the machine-shaped view of such a group — the program, heap,
// collector, globals, output and mutator counters of one run — for callers
// that build a machine over their own heap.
package vm

import (
	"bytes"
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/tasking"
)

// Stats counts mutator work.
type Stats struct {
	Instructions    int64
	Calls           int64
	ClosCalls       int64
	Allocations     int64
	ZeroFilledWords int64
	MaxStackWords   int
	MaxFrameDepth   int
}

// VM executes one program.
type VM struct {
	Prog    *code.Program
	Heap    *heap.Heap
	Col     *gc.Collector
	Globals []code.Word
	// Out and Stats are filled in by Run.
	Out   bytes.Buffer
	Stats Stats

	// MaxSteps bounds execution.
	MaxSteps int64

	// g is the one-task group the program runs as.
	g *tasking.Group
}

// New builds a machine with a fresh semispace heap of semiWords words per
// space and a collector of the given strategy (which must match the
// program's representation).
func New(prog *code.Program, semiWords int, strat gc.Strategy) (*VM, error) {
	return NewWith(prog, heap.New(prog.Repr, semiWords), strat)
}

// NewWith builds a machine over a caller-constructed heap (e.g. a
// mark/sweep heap from heap.NewMarkSweep).
func NewWith(prog *code.Program, h *heap.Heap, strat gc.Strategy) (*VM, error) {
	g, err := tasking.NewGroupWith(prog, h, strat, nil)
	if err != nil {
		return nil, err
	}
	return Over(g)
}

// Over makes a machine of a group with no tasks yet, spawning main as its
// one task.
func Over(g *tasking.Group) (*VM, error) {
	if g.Prog.MainFunc < 0 {
		return nil, fmt.Errorf("program has no main function")
	}
	g.Spawn(g.Prog.MainFunc)
	return &VM{
		Prog:     g.Prog,
		Heap:     g.Heap,
		Col:      g.Col,
		Globals:  g.Globals,
		MaxSteps: g.MaxSteps,
		g:        g,
	}, nil
}

// Run executes the program: the init function, then main applied to unit.
// It returns main's result word (decode with code.DecodeInt etc.).
func (m *VM) Run() (code.Word, error) {
	g := m.g
	g.MaxSteps = m.MaxSteps
	err := g.RunInit()
	if err == nil {
		err = g.Run()
	}
	main := g.Tasks[0]
	if err == nil && main.Status == tasking.Faulted {
		err = main.Err
	}
	m.Out.Reset()
	m.Out.WriteString(g.InitOutput())
	m.Out.Write(main.Out.Bytes())
	s := g.Stats
	m.Stats = Stats{
		Instructions:    s.Instructions,
		Calls:           s.Calls,
		ClosCalls:       s.ClosCalls,
		Allocations:     s.Allocations,
		ZeroFilledWords: s.ZeroFilledWords,
		MaxStackWords:   s.MaxStackWords,
		MaxFrameDepth:   s.MaxFrameDepth,
	}
	if err != nil {
		return 0, err
	}
	return main.Result, nil
}

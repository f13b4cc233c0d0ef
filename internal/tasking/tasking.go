// Package tasking implements the paper's §4 extension: multiple tasks in a
// shared-memory environment with stop-the-world tag-free collection.
//
// The model follows the paper's Ada-flavoured design:
//
//   - All tasks share one heap and the global roots; each has its own
//     stack of activation records.
//   - A task may be suspended for collection only when it makes a
//     procedure call (or itself requests allocation) — the same safe-point
//     discipline as the sequential collector.
//   - A dedicated register Rgc, normally zero, is conceptually added to
//     every call's target address. When an allocation finds the heap
//     exhausted it sets Rgc nonzero, so every other task's next call lands
//     in a suspension stub. The simulator models the zero-cost check by
//     comparing Rgc at call dispatch and counts the checks.
//   - When every live task is suspended, the collector traces all stacks
//     (tasks suspended at a call contribute the call's argument slots —
//     the values have not yet been copied to a callee frame) and the tasks
//     resume: the triggering task retries its allocation, the others
//     re-execute their calls.
//
// The paper describes two suspension disciplines (§4): checking Rgc only
// inside allocation routines (cheap checks, potentially long waits), or
// checking at every procedure call via the call-target offset (the default
// here). Both are implemented; experiment E7 compares their suspension
// latencies.
//
// Scheduling is deterministic round-robin with a fixed instruction
// quantum, so runs are reproducible.
//
// Every single-task program runs as a group of one task. Having no
// sibling, such a group needs neither suspension mechanism: its task checks
// Rgc at allocations instead of calls, and an allocation that needs a
// collection runs it on the spot instead of suspending and resuming. So
// gc_word elision must be disabled only when tasks can suspend at calls,
// in groups of several tasks: there any call can become a suspension
// point, and every call site needs its frame map.
package tasking

import (
	"bytes"
	"fmt"
	"strings"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
)

// Status is a task's scheduler state.
type Status int

// Task states.
const (
	Running Status = iota
	SuspendedAlloc
	SuspendedCall
	Done
	// Faulted marks a task stopped by its own failure — a runtime error or
	// an allocation the recovery ladder could not satisfy — with the cause
	// captured in Task.Fault. Faulting is per-task: siblings keep running.
	Faulted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case SuspendedAlloc:
		return "suspended-alloc"
	case SuspendedCall:
		return "suspended-call"
	case Done:
		return "done"
	case Faulted:
		return "faulted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Task is one thread of control.
type Task struct {
	ID     int
	Status Status
	Result code.Word
	Err    error
	// Fault holds the structured failure record when Status is Faulted.
	Fault *TaskFault
	Out   bytes.Buffer

	stack []code.Word
	sp    int
	fp    int
	pc    int
	depth int // frames on the stack
	// metered is how many instructions of the running quantum the meters
	// already hold (see Group.meter).
	metered int
	// pendingAlloc is the retry size while suspended at an allocation.
	pendingAlloc int
	// allocRetry marks a task resuming a suspended allocation: torture and
	// fault injection skip the retry, or an injected failure would suspend
	// the same allocation forever.
	allocRetry bool
	// allocEmergency marks a suspension caused by a failed (or injected-
	// failed) allocation rather than a sibling's Rgc or torture: the task is
	// climbing the recovery ladder, and the climb's outcome is counted as
	// LadderRecovered or LadderExhausted when it resolves.
	allocEmergency bool

	// Steps counts instructions this task has executed; AllocWords counts
	// the object field words it has requested. Both are the budget meters
	// (Group.BudgetSteps / BudgetAllocWords) and feed the serve harness's
	// per-request accounting.
	Steps      int64
	AllocWords int64

	// tlab is this task's private allocation buffer (Group.TLABWords > 0);
	// TLAB accumulates its lifetime accounting.
	tlab heap.TLAB
	TLAB TLABStats
}

// TLABStats is one task's allocation-buffer accounting over its lifetime.
// FastAllocs served from the private buffer without touching the shared
// heap; SlowAllocs went through Heap.Alloc (oversize, or a failed carve
// rescued by a mark/sweep free list); Refills carved RefillWords from the
// shared heap, of which WasteWords died unused and ReturnedWords were
// given back at retirement.
type TLABStats struct {
	FastAllocs    int64
	SlowAllocs    int64
	Refills       int64
	RefillWords   int64
	WasteWords    int64
	ReturnedWords int64
}

// FaultKind classifies a task fault.
type FaultKind int

// Fault kinds.
const (
	// FaultRuntime is a VM/runtime error (division by zero, match
	// failure, illegal opcode, ...).
	FaultRuntime FaultKind = iota
	// FaultOOM is an allocation that failed after the whole recovery
	// ladder: emergency collection, retry, and (when enabled) heap growth.
	FaultOOM
	// FaultBudget (BudgetExceeded) is a task terminated for exceeding a
	// per-task budget: the step/deadline limit, the allocation-word quota,
	// or an overload-ladder cancellation. Enforced only at the interpreter's
	// existing suspension points (call dispatch and allocation), so an
	// unbudgeted run's execution is untouched instruction for instruction.
	FaultBudget
)

// String names the fault kind ("BudgetExceeded" matches the serve
// harness's telemetry vocabulary).
func (k FaultKind) String() string {
	switch k {
	case FaultRuntime:
		return "RuntimeError"
	case FaultOOM:
		return "OutOfMemory"
	case FaultBudget:
		return "BudgetExceeded"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Frame is one activation record in a captured backtrace.
type Frame struct {
	// FP is the frame's base index in the task stack; PC the instruction
	// the frame is at (the faulting instruction for the innermost frame,
	// the pending call for each caller).
	FP, PC int
	Func   string
}

// TaskFault is the structured record of one task's failure: what happened
// (Kind, Cause), where (Func, PC, the frame chain) and — for allocation
// faults — how much was being requested.
type TaskFault struct {
	Task int
	Kind FaultKind
	PC   int
	Func string
	// AllocSize is the pending allocation's field count (FaultOOM only).
	AllocSize int
	Frames    []Frame
	Cause     error
}

// Error implements the error interface.
func (f *TaskFault) Error() string {
	switch f.Kind {
	case FaultRuntime:
		// Runtime-error causes come from errf, which already carries the
		// task/function/pc context and the backtrace.
		return f.Cause.Error()
	case FaultBudget:
		return fmt.Sprintf("task %d exceeded its budget in %s at pc %d: %v%s",
			f.Task, f.Func, f.PC, f.Cause, backtraceString(f.Frames))
	}
	return fmt.Sprintf("task %d faulted in %s at pc %d: allocation of %d fields failed after the recovery ladder: %v%s",
		f.Task, f.Func, f.PC, f.AllocSize, f.Cause, backtraceString(f.Frames))
}

// Unwrap exposes the underlying cause (e.g. *heap.OutOfMemoryError).
func (f *TaskFault) Unwrap() error { return f.Cause }

// backtraceString renders a frame chain innermost-first for error text.
// Deep recursions fault with thousands of live frames; only the innermost
// few identify the failure, so display is capped.
func backtraceString(frames []Frame) string {
	if len(frames) == 0 {
		return ""
	}
	const maxShown = 12
	var b strings.Builder
	b.WriteString("; backtrace:")
	for i, fr := range frames {
		if i == maxShown {
			fmt.Fprintf(&b, " <- ... (%d more)", len(frames)-i)
			break
		}
		if i > 0 {
			b.WriteString(" <-")
		}
		fmt.Fprintf(&b, " %s@pc%d(fp=%d)", fr.Func, fr.PC, fr.FP)
	}
	return b.String()
}

// Stats aggregates group-level measurements (experiment E7).
type Stats struct {
	Collections int64
	// RgcChecks counts call-dispatch Rgc comparisons (the per-call cost
	// the paper argues is nearly free), or allocation-time ones under
	// SuspendAtAllocs. A lone task has no sibling to suspend for and
	// counts none.
	RgcChecks int64
	// SuspendLatency records, per collection, the number of instructions
	// executed by all tasks between Rgc being raised and the last task
	// suspending.
	SuspendLatency []int64
	Instructions   int64
	// Calls and ClosCalls count direct and closure calls, Allocations the
	// completed allocation instructions, and ZeroFilledWords the frame
	// slots cleared at entry. MaxStackWords and MaxFrameDepth are the
	// deepest any task's stack grew, in words and in frames.
	Calls, ClosCalls, Allocations, ZeroFilledWords int64
	MaxStackWords, MaxFrameDepth                   int
	// ShardMinors counts single-shard minor collections (Shards > 1);
	// ShardMinorOverlapTasks sums, over those, the other-shard tasks that
	// were still runnable when the shard collected — the concurrency a
	// sharded heap buys over a stop-the-world minor, which would have
	// parked every one of them (experiment E16).
	ShardMinors            int64
	ShardMinorOverlapTasks int64
	// ShardExposures counts exposure events: a shard's young pointer
	// observed escaping to the globals or another shard, blocking that
	// shard's minors until a global collection empties the nurseries.
	ShardExposures int64
}

// Policy selects the paper's suspension discipline (§4).
type Policy int

// Suspension policies.
const (
	// SuspendAtCalls adds Rgc to every call target: a raised Rgc diverts
	// the next call into the suspension stub (the paper's second option).
	SuspendAtCalls Policy = iota
	// SuspendAtAllocs checks Rgc only inside allocation routines (the
	// paper's first option: fewer checks, potentially longer waits).
	SuspendAtAllocs
)

// Group is a set of tasks over one shared heap.
type Group struct {
	Prog    *code.Program
	Heap    *heap.Heap
	Col     *gc.Collector
	Globals []code.Word
	Tasks   []*Task
	Stats   Stats

	rgc     code.Word
	latency int64
	steps   int64
	// Policy is the suspension discipline (default SuspendAtCalls).
	Policy Policy
	// Quantum is the instruction slice per scheduling turn.
	Quantum int
	// MaxSteps bounds total execution.
	MaxSteps int64
	// GrowFactor, when > 1, enables the recovery ladder's growth rung:
	// after a collection that did not satisfy a pending allocation, the
	// heap is grown by this factor (per semispace) until the allocation
	// fits or MaxHeapWords is reached.
	GrowFactor float64
	// MaxHeapWords is the growth rung's hard ceiling in words per
	// semispace (0 = unbounded).
	MaxHeapWords int
	// TLABWords, when > 0, gives every task a private allocation buffer
	// refilled in chunks of this many words (-tlab N). The buffers are
	// armed lazily on the first scheduling call and retired en masse before
	// every collection via the collector's PreCollect hook.
	TLABWords int
	// BudgetSteps, when > 0, is the per-task instruction deadline: a task
	// that has executed more than this many instructions is terminated with
	// a BudgetExceeded fault at its next suspension point (call dispatch or
	// allocation). BudgetAllocWords is the per-task allocation-word quota,
	// checked before every allocation. Both leave siblings — and, with
	// budgets off, the whole run — untouched.
	BudgetSteps      int64
	BudgetAllocWords int64
	// Tick, when set, is called at the top of every scheduling round with
	// the group's virtual time (cumulative quantum steps). It may Spawn new
	// tasks and CancelTask existing ones (no collection is in progress at
	// tick time). Returning true keeps the scheduler alive even when every
	// current task is finished: virtual time advances by one quantum per
	// idle round so externally scheduled work (the serve harness's open-loop
	// arrivals) still has a clock.
	Tick func(now int64) bool

	// Shards, when > 1, partitions the tasks into that many heap shards,
	// each with its own nursery pair and TLAB pool
	// (heap.EnableNurseryShards — the pipeline arms the heap to match). A
	// task's shard is its ID mod Shards (ShardAssign overrides). When one
	// shard's nursery fills, only that shard's tasks ride a suspend wave
	// (rgcShard) and only that shard's young generation is collected —
	// every other shard's tasks keep running their quanta, which is the
	// pause overlap experiment E16 measures. Requires a tag-free strategy
	// with a nursery and no concurrent marking.
	Shards int
	// ShardAssign, when non-nil, overrides the task→shard map by task ID
	// (entries are reduced mod Shards; missing/negative IDs fall back to
	// ID mod Shards). The interleaving fuzz permutes it.
	ShardAssign []int

	// GCConcurrent arms mostly-concurrent marking (mark/sweep heaps without
	// a nursery): a cycle starts with a brief root-snapshot pause when heap
	// occupancy crosses ConcTriggerPct, marking then runs in budgeted
	// slices between task quanta, and a bounded final pause re-scans the
	// stacks and sweeps. Both pauses ride the ordinary Rgc suspend wave so
	// every task is at a call/alloc safe point with a valid frame map. See
	// gc/concurrent.go for the marking engine and the abort/fallback rung.
	GCConcurrent bool
	// ConcTriggerPct is the occupancy watermark, in percent of the heap's
	// words, that starts a concurrent cycle (0 = 75).
	ConcTriggerPct int

	// PoisonPruned faults any task whose compiled code loads the
	// liveness-guided collector's PrunedWord sentinel — the debug mode
	// that makes heap-liveness verdicts falsifiable: a verdict that pruned
	// a field the program still reads turns into a deterministic fault
	// instead of a silently wrong value.
	PoisonPruned bool

	// forceMajor requests that the next stop-the-world collection escalate
	// to a tenure-all major (the overload ladder's second rung); set via
	// RequestMajor, consumed by collectSuspended.
	forceMajor bool
	// concPhase tracks the concurrent cycle's scheduler-side state: which
	// suspend waves belong to the cycle's pauses rather than a collection.
	concPhase int
	// concLastEnd is heap occupancy right after the last collection of any
	// kind. The trigger requires real allocation growth beyond it, so a
	// mostly-live heap that stays above the watermark does not re-cycle
	// every round reclaiming nothing.
	concLastEnd int

	// initTask is the task RunInit runs the init function on: registered
	// while it runs, so the pre-collection retirement wave covers its
	// buffer too, and kept afterwards for its output (InitOutput).
	initTask *Task

	// zeroFill clears every frame at entry: the trace-everything
	// strategies and widened frame maps (code.Program.WideMaps) read slots
	// the function has not written yet.
	zeroFill bool
	// dec is the program in the form the interpreter runs (decode.go).
	dec *decoded
	// probing is set while RunUntilCollection runs: a lone task then
	// suspends at its allocation like any task, so the pending collection
	// can be handed to the caller.
	probing bool

	// rgcShard[s] is the per-shard Rgc register: nonzero parks shard-s
	// tasks (at the same safe points as rgc) for a single-shard minor
	// collection. exposed[s] records that a shard-s young pointer may live
	// outside shard s's own world (a global, another shard's stack or
	// young object) — shard-s minors are blocked until a global collection
	// empties every nursery, because a shard minor traces only shard-s
	// stacks, the globals and the shard-filtered remembered set.
	rgcShard []code.Word
	exposed  []bool
}

// NewGroup builds a tasking group over a fresh semispace copying heap.
// Entries are function indexes of the task bodies (each of type
// unit -> int); the program's init function runs first on task 0's stack
// to populate globals.
func NewGroup(prog *code.Program, semiWords int, strat gc.Strategy, entries []int) (*Group, error) {
	return NewGroupWith(prog, heap.New(prog.Repr, semiWords), strat, entries)
}

// NewGroupWith builds a tasking group over a caller-constructed heap
// (e.g. a mark/sweep heap from heap.NewMarkSweep).
func NewGroupWith(prog *code.Program, h *heap.Heap, strat gc.Strategy, entries []int) (*Group, error) {
	col, err := gc.New(prog, h, strat)
	if err != nil {
		return nil, err
	}
	dec := decode(prog)
	g := &Group{
		Prog:     prog,
		Heap:     h,
		Col:      col,
		Globals:  dec.far[len(prog.Consts):],
		Quantum:  97,
		MaxSteps: 1 << 40,
		zeroFill: strat == gc.StratAppel || strat == gc.StratTagged || prog.WideMaps,
		dec:      dec,
	}
	for _, e := range entries {
		g.Spawn(e)
	}
	return g, nil
}

// Spawn adds a task running function index entry (of type unit -> int) to
// the group. Tasks may be spawned before the run starts or dynamically
// from a Tick hook — never during a collection, which Tick guarantees by
// construction. The new task is scheduled at the end of the round-robin
// order, so spawning every entry up front is execution-identical to
// constructing the group with those entries.
func (g *Group) Spawn(entry int) *Task {
	t := &Task{ID: len(g.Tasks), stack: make([]code.Word, 1024), fp: -1}
	g.enter(t, entry)
	t.stack[t.fp+2] = code.EncodeInt(g.Prog.Repr, 0) // the unit argument
	g.Tasks = append(g.Tasks, t)
	return t
}

// Now returns the group's virtual time: the cumulative scheduler steps
// (whole quanta, including idle rounds) since the run began.
func (g *Group) Now() int64 { return g.steps }

// RequestMajor asks the next stop-the-world collection to escalate to a
// tenure-all major after the normal cycle — the serve harness's "force
// major/tenure-all" overload rung. No-op between collections otherwise.
func (g *Group) RequestMajor() { g.forceMajor = true }

// CancelTask terminates a live task with a BudgetExceeded fault carrying
// the given cause — the overload ladder's last per-task rung before any
// global failure. Safe from a Tick hook (the task is not mid-step); a
// task that already finished or faulted is left untouched.
func (g *Group) CancelTask(t *Task, cause error) bool {
	if t.Status == Done || t.Status == Faulted {
		return false
	}
	g.faultTask(t, FaultBudget, 0, cause)
	return true
}

// setupTLABs lazily arms the heap's TLAB mode and the pre-collection
// retirement hook. Idempotent; called from every scheduling entry point so
// callers may set TLABWords any time between construction and first run.
func (g *Group) setupTLABs() {
	if g.TLABWords > 0 && !g.Heap.TLABsEnabled() {
		g.Heap.EnableTLABs(g.TLABWords)
		g.Col.PreCollect = g.retireAllTLABs
	}
}

// setupShards lazily sizes the per-shard wave and exposure state.
// Idempotent; called from every scheduling entry point. The heap itself is
// sharded by the caller (heap.EnableNurseryShards) before the run starts.
func (g *Group) setupShards() {
	if g.Shards > 1 && g.rgcShard == nil {
		g.rgcShard = make([]code.Word, g.Shards)
		g.exposed = make([]bool, g.Shards)
	}
}

// sharded reports whether per-shard scheduling is live: more than one
// shard over a generational heap.
func (g *Group) sharded() bool {
	return g.Shards > 1 && g.Heap.NurseryEnabled()
}

// shardOf maps a task to its heap shard: ShardAssign[ID] when set,
// otherwise ID mod Shards. The init task (ID -1) runs in shard 0.
func (g *Group) shardOf(t *Task) int {
	if g.Shards <= 1 || t.ID < 0 {
		return 0
	}
	if t.ID < len(g.ShardAssign) {
		s := g.ShardAssign[t.ID] % g.Shards
		if s < 0 {
			s += g.Shards
		}
		return s
	}
	return t.ID % g.Shards
}

// expose marks a young value as escaped from its shard, blocking that
// shard's minors. Tag-free integers can alias young addresses, so the check
// is conservative — a spurious exposure only costs a blocked shard minor,
// never soundness.
func (g *Group) expose(v code.Word) {
	s := g.Heap.YoungShardOf(v)
	if !g.exposed[s] {
		g.exposed[s] = true
		g.Stats.ShardExposures++
	}
}

// maybeClearExposure lifts the exposure blocks once every nursery is empty
// (after a tenure-all, or any global collection that promoted or reclaimed
// every young object): with no young objects left there is nothing an old
// exposure flag could still protect.
func (g *Group) maybeClearExposure() {
	if g.exposed == nil || g.Heap.YoungUsed() != 0 {
		return
	}
	for i := range g.exposed {
		g.exposed[i] = false
	}
}

// clearShardWaves stands down every pending shard wave (a global
// collection empties all nurseries, so the waves' work is done).
func (g *Group) clearShardWaves() {
	for i := range g.rgcShard {
		g.rgcShard[i] = 0
	}
}

// retireTaskTLAB retires one task's buffer (no-op when inactive), folding
// the waste/give-back words into the task's accounting.
func (g *Group) retireTaskTLAB(t *Task) {
	if !t.tlab.Active() {
		return
	}
	waste, returned := g.Heap.RetireTLAB(&t.tlab)
	t.TLAB.WasteWords += int64(waste)
	t.TLAB.ReturnedWords += int64(returned)
}

// retireAllTLABs retires every live buffer in the group; the collector
// runs it (via PreCollect) before any collection so the heap it scans is
// fully tiled.
func (g *Group) retireAllTLABs() {
	for _, t := range g.Tasks {
		g.retireTaskTLAB(t)
	}
	if g.initTask != nil {
		g.retireTaskTLAB(g.initTask)
	}
}

// taskAlloc is the tasking allocation path. With TLABs armed, an eligible
// request is served from the task's private buffer — a bounds-check-and-
// bump with no shared-heap acquisition — refilling via one chunked carve
// when the buffer is full. Oversize requests, and carve failures (the
// region cannot take even the clamped chunk), fall back to the shared
// Heap.Alloc, whose failure feeds the ordinary recovery ladder.
func (g *Group) taskAlloc(t *Task, n int) (code.Word, error) {
	if g.TLABWords > 0 && g.Heap.TLABEligible(n) {
		if ptr, ok := g.Heap.AllocTLAB(&t.tlab, n); ok {
			t.TLAB.FastAllocs++
			return ptr, nil
		}
		g.retireTaskTLAB(t)
		if tl, ok := g.Heap.CarveTLAB(n); ok {
			t.tlab = tl
			t.TLAB.Refills++
			t.TLAB.RefillWords += int64(tl.Cap())
			ptr, ok := g.Heap.AllocTLAB(&t.tlab, n)
			if !ok {
				panic("tasking: allocation failed inside a fresh TLAB carve")
			}
			t.TLAB.FastAllocs++
			return ptr, nil
		}
	}
	ptr, err := g.Heap.Alloc(n)
	if err == nil && g.TLABWords > 0 {
		t.TLAB.SlowAllocs++
	}
	return ptr, err
}

// allocBlocked reports whether a pending allocation would still fail if
// retried right now. On a TLAB heap the retry refills through a clamped
// carve (or the mark/sweep free lists), so it must be judged with
// NeedTLAB — Need alone compares a TLAB-satisfiable request against the
// shared bump region and sends the ladder climbing rungs it does not need.
func (g *Group) allocBlocked(n int) bool {
	if g.TLABWords > 0 && g.Heap.TLABsEnabled() {
		return g.Heap.NeedTLAB(n)
	}
	return g.Heap.Need(n)
}

// RunInit executes the program's init function to completion on a
// dedicated task before the group starts.
func (g *Group) RunInit() error {
	g.setupTLABs()
	g.setupShards()
	t := &Task{ID: -1, stack: make([]code.Word, 1024), fp: -1}
	g.initTask = t
	defer g.retireTaskTLAB(t)
	g.enter(t, g.Prog.InitFunc)
	for t.Status == Running {
		if err := g.step(t, 1_000_000); err != nil {
			return err
		}
		if t.Steps > g.MaxSteps {
			return fmt.Errorf("tasking: step limit exceeded in init")
		}
		if t.Status == SuspendedAlloc {
			// Init alone in a group of several tasks: collect immediately
			// with only this stack, then climb the rest of the ladder. Init
			// failure is group-fatal — no task can run without the globals.
			// (A one-task group's init collects in place, see park.)
			g.collect([]*Task{t})
			ok := g.rescueAlloc([]*Task{t}, t)
			g.noteLadderOutcome(t, ok)
			if !ok {
				return t.errf(g, "%v", g.oomCause(t.pendingAlloc))
			}
			t.Status = Running
		}
	}
	if t.Status == Faulted {
		return t.Err
	}
	g.sealInit()
	return nil
}

// InitOutput returns what the init function printed.
func (g *Group) InitOutput() string {
	if g.initTask == nil {
		return ""
	}
	return g.initTask.Out.String()
}

// sealInit closes out a sharded group's init phase. Init runs in shard 0
// and populates the globals, so its young allocations are all "exposed" —
// the flags it raised would block every shard-0 minor from the first
// quantum. A tenure-all collection over the globals alone (the spawned
// tasks' stacks hold no heap pointers yet — just the unit argument) moves
// everything init built into the shared old region, after which the
// exposure flags can be cleared and every shard starts with an empty,
// private nursery.
func (g *Group) sealInit() {
	if !g.sharded() {
		return
	}
	if g.Heap.YoungUsed() > 0 {
		g.tenureCollect(nil)
	}
	g.maybeClearExposure()
}

// Run schedules the tasks round-robin until every task is Done or Faulted.
// Per-task failures do not abort the group: a task that trips a runtime
// error or exhausts the recovery ladder transitions to Faulted (cause in
// Task.Fault / Task.Err) and its siblings keep running. The returned error
// reports only group-level failures — the step limit and scheduler
// deadlock.
func (g *Group) Run() error {
	for {
		pending, err := g.runUntilSuspended()
		if err != nil {
			return err
		}
		if !pending {
			if g.Heap.TLABsEnabled() {
				g.Col.Telem.FinalizeTLAB(g.Heap.Stats)
			}
			return nil
		}
		g.collectSuspended(g.pendingTasks())
	}
}

// runUntilSuspended schedules tasks until either every task finished
// (false) or a collection is pending with every live task at a safe point
// (true).
func (g *Group) runUntilSuspended() (bool, error) {
	g.setupTLABs()
	g.setupShards()
	sharded := g.sharded()
	quantum := g.Quantum
	if g.alone() {
		quantum = soloQuantum
	}
	for {
		external := false
		if g.Tick != nil && g.rgc == 0 {
			// The supervisor hook runs only between collections: a task it
			// spawns starts Running, which must not break the all-suspended
			// invariant of a pending stop-the-world cycle.
			external = g.Tick(g.steps)
		}
		if g.forceMajor && g.rgc == 0 {
			// A supervisor requested a major cycle (the serve ladder's rung
			// 2). Collections normally start from an allocation failure, but
			// a server shedding every arrival may never allocate again —
			// waiting for an organic trigger would leave occupancy high
			// forever. Raise Rgc so running tasks reach their safe points
			// (the normal stop-the-world path consumes forceMajor); with no
			// runnable task, collect right here over the globals alone.
			anyRunning := false
			for _, t := range g.Tasks {
				if t.Status == Running {
					anyRunning = true
					break
				}
			}
			if anyRunning {
				g.rgc = 1
			} else {
				g.collectSuspended(g.pendingTasks())
			}
		}
		if g.GCConcurrent && g.rgc == 0 {
			g.concAdvance()
		}
		allDone := true
		anyRan := false
		for _, t := range g.Tasks {
			if t.Status == Done || t.Status == Faulted {
				continue
			}
			allDone = false
			if t.Status == SuspendedAlloc || t.Status == SuspendedCall {
				continue
			}
			anyRan = true
			if sharded {
				// Route this quantum's allocations at the task's own nursery
				// shard.
				g.Heap.SetAllocShard(g.shardOf(t))
			}
			if err := g.step(t, quantum); err != nil {
				// Fault isolation: the error stops this task only.
				g.faultTask(t, FaultRuntime, 0, err)
				continue
			}
			if t.Status == Done {
				// The task will never allocate again; complete its buffer
				// accounting and release the tail.
				g.retireTaskTLAB(t)
			}
			g.steps += int64(quantum)
			if g.steps > g.MaxSteps {
				return false, fmt.Errorf("tasking: step limit exceeded")
			}
		}
		if allDone {
			if external {
				// Open-loop mode: every admitted task finished but the
				// supervisor still expects arrivals. Let virtual time pass
				// so the next Tick can inject them.
				g.steps += int64(g.Quantum)
				if g.steps > g.MaxSteps {
					return false, fmt.Errorf("tasking: step limit exceeded")
				}
				continue
			}
			if g.GCConcurrent {
				g.concRunEnd()
			}
			return false, nil
		}
		if sharded {
			g.serviceShardMinors()
		}
		if g.rgc != 0 && g.allSuspended() {
			live := g.pendingTasks()
			need := false
			for _, t := range live {
				need = need || t.Status == SuspendedAlloc
			}
			if g.concPause(live, need) {
				continue
			}
			return true, nil
		}
		if !anyRan && g.rgc == 0 {
			return false, fmt.Errorf("tasking: deadlock: tasks suspended with no collection pending")
		}
	}
}

// RunUntilCollection schedules the group until a stop-the-world collection
// is about to start and returns the root set the collector would scan,
// without collecting. It returns pending=false when every task finished
// first. Benchmarks use it to measure Collect on realistic mid-execution
// root sets; callers may invoke Collect repeatedly on the returned roots
// (each collection leaves the stacks consistent for the next).
func (g *Group) RunUntilCollection() ([]gc.TaskRoots, bool, error) {
	g.probing = true
	defer func() { g.probing = false }()
	pending, err := g.runUntilSuspended()
	if err != nil || !pending {
		return nil, false, err
	}
	return g.rootSet(g.pendingTasks()), true, nil
}

// soloQuantum is a lone task's scheduling slice. With no sibling to
// interleave, a return to the scheduler only serves the step limit and
// the concurrent marker's pacing, so the slice is long.
const soloQuantum = 1 << 14

// alone reports whether the group is one task that can never gain a
// sibling (no Tick hook can spawn one). Such a task is its own Rgc wave:
// it checks Rgc at allocations, never at calls, and collects in place.
func (g *Group) alone() bool {
	return len(g.Tasks) == 1 && g.Tick == nil
}

// pendingTasks lists the live tasks suspended for the coming collection.
func (g *Group) pendingTasks() []*Task {
	var live []*Task
	for _, t := range g.Tasks {
		if t.Status == SuspendedAlloc || t.Status == SuspendedCall {
			live = append(live, t)
		}
	}
	return live
}

// rootSet builds the collector's view of the suspended tasks.
func (g *Group) rootSet(live []*Task) []gc.TaskRoots {
	roots := make([]gc.TaskRoots, 0, len(live))
	for _, t := range live {
		roots = append(roots, gc.TaskRoots{
			Stack:  t.stack,
			FP:     t.fp,
			SP:     t.sp,
			PC:     t.pc,
			AtCall: t.Status == SuspendedCall,
		})
	}
	return roots
}

func (g *Group) allSuspended() bool {
	for _, t := range g.Tasks {
		if t.Status == Running {
			return false
		}
	}
	return true
}

// Concurrent-cycle scheduler phases. The marking engine (gc/concurrent.go)
// owns the gray queue; the scheduler owns when its pauses may run: frame
// maps exist only at call/alloc instructions, so the root snapshot and the
// final re-scan ride the same Rgc suspend wave a stop-the-world collection
// uses, while mark slices — which touch no stacks — run between rounds.
const (
	concIdle          = iota
	concStartPending  // wave raised to snapshot roots and start the cycle
	concMarking       // cycle active; one mark slice per scheduling round
	concFinishPending // gray queue drained; wave raised for the final pause
)

// concAdvance drives the concurrent collector between task quanta: it
// raises the start wave when occupancy crosses the watermark, runs one
// marking slice per round while the cycle is active, raises the finish
// wave once the gray queue drains, and aborts to an ordinary
// stop-the-world collection when the slice watchdog trips. Callers
// guarantee g.rgc == 0.
func (g *Group) concAdvance() {
	switch g.concPhase {
	case concIdle:
		if g.Col.ConcActive() {
			return // cycle mid-flight with no wave pending (marking phase)
		}
		pct := g.ConcTriggerPct
		if pct <= 0 {
			pct = 75
		}
		// Occupancy, not Used(): the mark/sweep bump pointer saturates
		// permanently once the region fills, while freed storage parks on
		// the free lists. Used minus free-list words is what is live+floating.
		occ := g.Heap.OccupiedWords()
		if 100*occ < pct*g.Heap.SemiWords() {
			return
		}
		// Hysteresis: a heap whose live set sits above the watermark would
		// otherwise re-cycle every round reclaiming nothing. Require real
		// allocation since the last collection before cycling again.
		if occ < g.concLastEnd+g.Heap.SemiWords()/8 {
			return
		}
		g.concPhase = concStartPending
		g.rgc = 1
	case concMarking:
		if !g.Col.ConcActive() {
			// The write barrier aborted the cycle mid-quantum (a non-ground
			// store it cannot type). Raise an ordinary stop-the-world wave to
			// reclaim — the fallback the abort rung promises.
			g.concPhase = concIdle
			g.rgc = 1
			return
		}
		switch g.Col.ConcSlice() {
		case gc.ConcDrained:
			g.concPhase = concFinishPending
			g.rgc = 1
		case gc.ConcOverBudget:
			// The watchdog rung: the gray queue refused to drain within the
			// slice budget (a store-heavy mutator regrowing it faster than
			// marking retires it). Abort the cycle and raise an ordinary
			// stop-the-world wave, which reclaims with the serial collector.
			g.Col.ConcAbort()
			g.concPhase = concIdle
			g.rgc = 1
		}
	}
}

// concPause services a suspend wave that belongs to the concurrent cycle
// (start or finish) rather than a collection: every live task is at a safe
// point, so the stacks can be scanned. It reports whether the wave was
// consumed here — tasks resumed, scheduling continues. A genuine
// collection wave (allocation failure, forced major), or one an
// allocation needs memory from (need: in a group of several tasks, any
// task parked at an allocation, torture included), returns false and
// hands over to the stop-the-world path, whose CollectFull aborts any
// in-flight cycle automatically — so the scheduler phase resets with it.
func (g *Group) concPause(live []*Task, need bool) bool {
	if need || (g.concPhase != concStartPending && g.concPhase != concFinishPending) {
		g.concPhase = concIdle
		return false
	}
	g.Stats.SuspendLatency = append(g.Stats.SuspendLatency, g.latency)
	g.latency = 0
	if g.concPhase == concStartPending {
		g.Col.ConcStart(g.rootSet(live), g.Globals)
		g.concPhase = concMarking
	} else {
		g.Col.ConcFinish(g.rootSet(live), g.Globals)
		g.Stats.Collections++
		g.concPhase = concIdle
		g.concLastEnd = g.Heap.OccupiedWords()
	}
	g.rgc = 0
	for _, t := range live {
		t.Status = Running
	}
	return true
}

// concRunEnd closes out concurrent state when the last task finishes: a
// cycle still marking (or about to finish) completes over the globals
// alone — the sweep, the telemetry record and the verifier all still run —
// and a wave that never gathered is stood down.
func (g *Group) concRunEnd() {
	if g.Col.ConcActive() {
		g.Col.ConcFinish(nil, g.Globals)
		g.Stats.Collections++
	}
	g.concPhase = concIdle
	g.rgc = 0
}

// collectSuspended runs a stop-the-world collection over the suspended
// tasks live and resumes them, climbing the rest of the recovery ladder
// for any task whose pending allocation the collection did not satisfy:
// grow the heap (when GrowFactor enables it) and, only when growth is off
// or capped, fault that one task. Siblings always resume (otherwise the
// group would either cycle through collections forever or die with one
// greedy task).
func (g *Group) collectSuspended(live []*Task) {
	g.collect(live)
	if g.forceMajor {
		// An external supervisor (the serve degradation ladder) asked for a
		// tenure-all cycle: empty the nursery into the old region so shed
		// decisions are judged against real headroom.
		g.forceMajor = false
		if g.Heap.NurseryEnabled() {
			g.tenureCollect(live)
		}
	}
	g.Stats.SuspendLatency = append(g.Stats.SuspendLatency, g.latency)
	g.latency = 0
	// Rescue before resuming anyone: rescueAlloc's generational rungs run
	// further collections over these same stacks, and a task's root
	// treatment (AtCall) is read from its still-suspended status.
	for _, t := range live {
		if t.Status != SuspendedAlloc {
			continue
		}
		if g.sharded() {
			// The retry and the ladder's Need checks judge headroom against
			// the blocked task's own nursery shard.
			g.Heap.SetAllocShard(g.shardOf(t))
		}
		ok := g.rescueAlloc(live, t)
		g.noteLadderOutcome(t, ok)
		if !ok {
			g.faultTask(t, FaultOOM, t.pendingAlloc, g.oomCause(t.pendingAlloc))
		}
	}
	for _, t := range live {
		if t.Status != Faulted {
			t.Status = Running
		}
	}
	g.concLastEnd = g.Heap.OccupiedWords()
}

// serviceShardMinors runs any pending single-shard minor whose tasks have
// all reached safe points. Unlike a stop-the-world wave, a shard wave
// gathers only its own tasks: the scheduler keeps stepping every other
// shard between rounds, so their mutation overlaps the shard's collection
// (the overlap Stats.ShardMinorOverlapTasks measures). A wave whose shard
// is no longer minor-eligible — an exposure landed after the raise, a
// barrier overflow forced the next cycle major — escalates to the ordinary
// global wave instead, as does a shard whose minor did not free enough for
// the blocked allocation (the global ladder has the full/tenure/grow rungs
// a shard minor lacks).
func (g *Group) serviceShardMinors() {
	for s := range g.rgcShard {
		if g.rgcShard[s] == 0 {
			continue
		}
		if g.rgc != 0 {
			// A global wave is also pending; its collection empties every
			// nursery, subsuming this shard's. The shard's suspended tasks
			// join the global wave and are rescued/resumed with it.
			g.rgcShard[s] = 0
			continue
		}
		var mine []*Task
		ready := true
		overlap := 0
		for _, t := range g.Tasks {
			switch t.Status {
			case Running:
				if g.shardOf(t) == s {
					ready = false
				} else {
					overlap++
				}
			case SuspendedAlloc, SuspendedCall:
				if g.shardOf(t) == s {
					mine = append(mine, t)
				}
			}
		}
		if !ready {
			continue // shard tasks still draining to their safe points
		}
		if !g.Col.MinorEligible() || g.exposed[s] {
			g.rgcShard[s] = 0
			g.rgc = 1
			continue
		}
		// Only this shard's young TLABs must be retired: other shards' young
		// buffers are untouched by a shard minor, and promotion allocates
		// past any live old-region carve.
		for _, t := range mine {
			g.retireTaskTLAB(t)
		}
		g.Col.CollectMinorShard(s, g.rootSet(mine), g.Globals)
		g.Stats.Collections++
		g.Stats.ShardMinors++
		g.Stats.ShardMinorOverlapTasks += int64(overlap)
		g.rgcShard[s] = 0
		g.Heap.SetAllocShard(s)
		escalate := false
		for _, t := range mine {
			if t.Status == SuspendedAlloc && g.allocBlocked(t.pendingAlloc) {
				// The shard minor was not enough; climb the global ladder.
				// The task stays suspended and is rescued by the global
				// collection's collectSuspended.
				g.startClimb(t)
				escalate = true
			}
		}
		if escalate {
			continue
		}
		for _, t := range mine {
			if t.Status != Faulted {
				t.Status = Running
			}
		}
	}
}

// rescueAlloc climbs the post-collection rungs of the ladder for t's
// pending allocation: if the collection freed enough, done; otherwise the
// allocation climbs (see gc.ResilienceStats) through the generational
// rungs (full collection, then a tenure-all collection that empties the
// nursery) and finally grows the heap by GrowFactor per attempt up to the
// MaxHeapWords ceiling. live is the suspended-task set whose stacks root
// the escalation collections.
func (g *Group) rescueAlloc(live []*Task, t *Task) bool {
	n := t.pendingAlloc
	if !g.allocBlocked(n) {
		return true
	}
	if !t.allocEmergency {
		// The collection this allocation waited for was not enough.
		t.allocEmergency = true
		g.Col.Telem.Resilience.EmergencyCollections++
	}
	if g.Heap.NurseryEnabled() {
		// The triggering collection may have been minor; a full collection
		// reclaims old-region garbage the minor cycle never looked at.
		if g.Col.LastCollectionMinor() {
			g.fullCollect(live)
			if !g.allocBlocked(n) {
				return true
			}
		}
		// Survivors below the promotion age can pin the nursery across any
		// number of full collections; tenure them all so an oversized
		// request can be judged against the real old-region headroom.
		g.tenureCollect(live)
		if !g.allocBlocked(n) {
			return true
		}
	}
	for g.GrowFactor > 1 {
		cur := g.Heap.SemiWords()
		next := int(float64(cur) * g.GrowFactor)
		if next <= cur {
			next = cur + 1
		}
		if g.MaxHeapWords > 0 && next > g.MaxHeapWords {
			next = g.MaxHeapWords
		}
		if next <= cur {
			return false // ceiling reached
		}
		if err := g.Heap.Grow(next); err != nil {
			return false
		}
		g.Col.Telem.Resilience.HeapGrowths++
		if !g.allocBlocked(n) {
			return true
		}
		if g.Heap.NurseryEnabled() {
			// Growth extends only the old region; re-tenure so the enlarged
			// region can absorb whatever still pins the nursery.
			g.tenureCollect(live)
			if !g.allocBlocked(n) {
				return true
			}
		}
	}
	return false
}

// oomCause materializes the typed exhaustion error for a pending
// allocation the ladder could not satisfy.
func (g *Group) oomCause(n int) error {
	if _, err := g.Heap.Alloc(n); err != nil {
		return err
	}
	return fmt.Errorf("allocation of %d fields failed transiently", n)
}

// faultTask transitions one task to Faulted with a captured TaskFault.
func (g *Group) faultTask(t *Task, kind FaultKind, allocSize int, cause error) {
	f := &TaskFault{
		Task:      t.ID,
		Kind:      kind,
		PC:        t.pc,
		Func:      g.funcName(t),
		AllocSize: allocSize,
		Frames:    g.backtrace(t),
		Cause:     cause,
	}
	t.Status = Faulted
	t.Fault = f
	t.Err = f
	g.retireTaskTLAB(t)
	g.Col.Telem.Resilience.TaskFaults++
	if kind == FaultBudget {
		g.Col.Telem.Resilience.BudgetFaults++
	}
}

// startClimb puts t's allocation on the recovery ladder (see
// gc.ResilienceStats) and raises Rgc for its emergency collection, which
// every climb starting in the same wave shares.
func (g *Group) startClimb(t *Task) {
	if g.rgc == 0 {
		g.Col.Telem.Resilience.EmergencyCollections++
	}
	g.rgc = 1
	t.allocEmergency = true
}

// noteLadderOutcome resolves one task's recovery-ladder climb: recovered
// (the retry will succeed) or exhausted (the task is about to fault).
// Only counted for tasks whose suspension was a failed allocation —
// emergency climbs — not for siblings parked by Rgc or torture.
func (g *Group) noteLadderOutcome(t *Task, ok bool) {
	if !t.allocEmergency {
		return
	}
	t.allocEmergency = false
	if ok {
		g.Col.Telem.Resilience.LadderRecovered++
	} else {
		g.Col.Telem.Resilience.LadderExhausted++
	}
}

// overBudget reports whether the task has exceeded a per-task budget,
// with the typed cause. extraAlloc is the field-word size of an
// allocation about to be requested (0 at call dispatch).
func (g *Group) overBudget(t *Task, extraAlloc int) (error, bool) {
	if g.BudgetSteps > 0 && t.Steps > g.BudgetSteps {
		return fmt.Errorf("step budget exhausted: %d instructions executed, limit %d", t.Steps, g.BudgetSteps), true
	}
	if g.BudgetAllocWords > 0 && t.AllocWords+int64(extraAlloc) > g.BudgetAllocWords {
		return fmt.Errorf("allocation budget exhausted: %d words requested, quota %d", t.AllocWords+int64(extraAlloc), g.BudgetAllocWords), true
	}
	return nil, false
}

// backtrace captures the task's frame chain, innermost first, bounded so
// a fault deep in a recursion does not snapshot thousands of identical
// frames. Each caller's pc is the call instruction stored as its callee's
// return address, and each frame is named by the function holding its pc.
func (g *Group) backtrace(t *Task) []Frame {
	const maxFrames = 64
	var frames []Frame
	fp, pc := t.fp, t.pc
	for i := t.depth; i > 0 && fp >= 0 && len(frames) < maxFrames; i-- {
		frames = append(frames, Frame{FP: fp, PC: pc, Func: g.funcNameAt(pc)})
		pc = int(t.stack[fp+1])
		fp = int(t.stack[fp])
	}
	return frames
}

func (g *Group) collect(live []*Task) {
	g.Col.Collect(g.rootSet(live), g.Globals)
	g.Stats.Collections++
	g.rgc = 0
	g.clearShardWaves()
	g.maybeClearExposure()
}

// fullCollect forces a major collection (a rescue-ladder rung; the normal
// path goes through collect, which lets the collector pick minor/major).
func (g *Group) fullCollect(live []*Task) {
	g.Col.CollectFull(g.rootSet(live), g.Globals)
	g.Stats.Collections++
	g.maybeClearExposure()
}

// tenureCollect runs a full collection with every nursery survivor
// promoted regardless of age, emptying the young generation.
func (g *Group) tenureCollect(live []*Task) {
	g.Heap.SetTenureAll(true)
	g.fullCollect(live)
	g.Heap.SetTenureAll(false)
}

// ---------------------------------------------------------------------------
// Per-task execution.
// ---------------------------------------------------------------------------

// push pushes f's activation record (Figure 1: dynamic link, return
// address, then the slots) on t's stack for a call at retPC from the frame
// at fp, and returns the new frame. retPC is the calling instruction, from
// which collectors recover the caller's gc_word. The interpreter's OpCall
// does the same inline.
func (g *Group) push(t *Task, f *funcInfo, fp, retPC int) []code.Word {
	nfp := t.sp
	end := nfp + f.size
	if end > len(t.stack) {
		t.grow(end)
	}
	fr := t.stack[nfp:end]
	fr[0], fr[1] = code.Word(fp), code.Word(retPC)
	if g.zeroFill {
		clear(fr[2:])
		g.Stats.ZeroFilledWords += int64(f.nslots)
	}
	t.sp = end
	t.depth++
	if end > g.Stats.MaxStackWords {
		g.Stats.MaxStackWords = end
	}
	if t.depth > g.Stats.MaxFrameDepth {
		g.Stats.MaxFrameDepth = t.depth
	}
	return fr
}

// grow reallocates the task's stack to hold at least end words.
func (t *Task) grow(end int) {
	ns := make([]code.Word, end*2)
	copy(ns, t.stack)
	t.stack = ns
}

// enter starts t in function fidx, with no caller to return to.
func (g *Group) enter(t *Task, fidx int) {
	f := &g.dec.fns[fidx]
	t.fp = t.sp
	g.push(t, f, -1, -1)
	t.pc = f.entry
}

func (t *Task) errf(g *Group, format string, args ...any) error {
	return fmt.Errorf("task %d: runtime error in %s at pc %d: %s%s",
		t.ID, g.funcName(t), t.pc, fmt.Sprintf(format, args...), backtraceString(g.backtrace(t)))
}

// funcName names the function t is executing.
func (g *Group) funcName(t *Task) string {
	if t.depth == 0 {
		return "?"
	}
	return g.funcNameAt(t.pc)
}

// funcNameAt names the function whose code holds pc.
func (g *Group) funcNameAt(pc int) string {
	if i := g.dec.funcAt(pc); i >= 0 {
		return g.Prog.Funcs[i].Name
	}
	return "?"
}

// trap leaves the interpreter loop (see leave) with a runtime error at pc.
func (g *Group) trap(t *Task, pc, fp, n int, format string, args ...any) error {
	g.leave(t, pc, fp, n)
	return t.errf(g, format, args...)
}

// meter brings the task's and the group's instruction meters up to the n
// instructions t has executed in its current quantum, adding the new ones
// to the pending wave's suspension latency while Rgc is up.
func (g *Group) meter(t *Task, n int) {
	d := int64(n - t.metered)
	t.metered = n
	g.Stats.Instructions += d
	t.Steps += d
	if g.rgc != 0 {
		g.latency += d
	}
}

// leave stores the interpreter's registers in t at the end of a quantum
// of n instructions and settles its meters.
func (g *Group) leave(t *Task, pc, fp, n int) {
	t.pc, t.fp = pc, fp
	g.meter(t, n)
	t.metered = 0
}

// Properties of a task's run that the interpreter loop tests, one bit
// each (see stepMode).
const (
	modeNursery = 1 << iota
	modeSharded
	modeBudgets
	modeCheckCalls
	modePlain
	modePoison
	modeConcurrent
)

// stepMode computes the loop's mode bits for the next quantum.
func (g *Group) stepMode() uint {
	var m uint
	if g.Heap.NurseryEnabled() {
		m |= modeNursery
	}
	if g.sharded() {
		m |= modeSharded
	}
	budgets := g.BudgetSteps > 0 || g.BudgetAllocWords > 0
	if budgets {
		m |= modeBudgets
	}
	// The Rgc register is added to every call target, unless the task is
	// alone: its call sites may have had their gc_words elided, so it
	// checks Rgc at its allocations instead (allocate).
	if g.Policy == SuspendAtCalls && !g.alone() {
		m |= modeCheckCalls
	}
	// With no budget, fault plan, allocation buffer, concurrent marker,
	// shard or probe to consult, allocate reduces to Heap.Alloc for a task
	// that checks Rgc at calls, and for a lone task while Rgc is down: such
	// an allocation bumps the heap directly when it has room.
	if !g.probing && !budgets && g.Col.Faults == nil && !g.GCConcurrent && g.TLABWords == 0 &&
		(g.alone() || (g.Policy == SuspendAtCalls && g.Shards <= 1)) {
		m |= modePlain
	}
	if g.PoisonPruned {
		m |= modePoison
	}
	if g.GCConcurrent {
		m |= modeConcurrent
	}
	return m
}

// val reads an operand of the decoded stream (decode.go) against the
// frame fr: a frame offset, or the complement of a far-table index.
func val(fr, far []code.Word, o code.Word) code.Word {
	if o >= 0 {
		return fr[o]
	}
	return far[^o]
}

// ret pops t's frame at fp, returning v to the caller, and gives the pc
// and frame to resume at in the decoded stream dc: the continuation and
// the destination slot sit in the call instruction at the return address.
// rpc is -1 when the task's bottom frame returned, ending the task.
func (t *Task) ret(dc []code.Word, fp int, v code.Word) (rpc, rfp int) {
	st := t.stack
	retPC := int(st[fp+1])
	t.sp = fp
	t.depth--
	if retPC < 0 {
		t.Status = Done
		t.Result = v
		return -1, fp
	}
	rfp = int(st[fp])
	st[rfp+int(dc[retPC+1])] = v
	return int(dc[retPC+3]), rfp
}

// jz is the branch of the OpJz at pc of the decoded stream dc, given
// whether its operand was true.
func jz(dc []code.Word, pc int, r bool) int {
	if r {
		return pc + 3
	}
	return int(dc[pc+2])
}

// step executes up to quantum instructions of one task. This is the one
// bytecode interpreter; it runs the group's decoded copy of the program
// (decode.go). The pc and frame pointer live in locals and are stored back
// into the task before anything outside the loop can read them: the
// allocation slow path, faults and the return to the scheduler. fr is the
// current frame, re-sliced whenever the frame or the stack changes. A
// fused opcode counts each instruction it runs in n, and leaves the loop
// between two of them when the quantum ends there.
func (g *Group) step(t *Task, quantum int) error {
	dc, far, fns := g.dec.code, g.dec.far, g.dec.fns
	repr := g.Prog.Repr
	mode := g.stepMode()
	zeroFill := g.zeroFill
	pc, fp := t.pc, t.fp
	fr := t.stack[fp:]
	n := 0 // instructions executed in this quantum
run:
	for n < quantum {
		n++
		switch dc[pc] {
		case code.OpRet:
			rpc, rfp := t.ret(dc, fp, val(fr, far, dc[pc+1]))
			if rpc < 0 {
				break run
			}
			pc, fp, fr = rpc, rfp, t.stack[rfp:]

		case code.OpJmp:
			pc = int(dc[pc+1])

		case opJmpRet:
			pc = int(dc[pc+1])
			if n == quantum {
				break run
			}
			n++
			rpc, rfp := t.ret(dc, fp, val(fr, far, dc[pc+1]))
			if rpc < 0 {
				break run
			}
			pc, fp, fr = rpc, rfp, t.stack[rfp:]

		case code.OpJz:
			pc = jz(dc, pc, code.DecodeBool(repr, val(fr, far, dc[pc+1])))

		case code.OpMove:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2])
			pc += 3

		case opMoveJmp:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2])
			if n == quantum {
				pc += 3
				break run
			}
			n++
			pc = int(dc[pc+4])

		case opMoveJmpRet:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2])
			if n == quantum {
				pc += 3
				break run
			}
			n++
			pc = int(dc[pc+4])
			if n == quantum {
				break run
			}
			n++
			rpc, rfp := t.ret(dc, fp, val(fr, far, dc[pc+1]))
			if rpc < 0 {
				break run
			}
			pc, fp, fr = rpc, rfp, t.stack[rfp:]

		case code.OpAdd:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2]) + val(fr, far, dc[pc+3])
			pc += 4
		case code.OpSub:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2]) - val(fr, far, dc[pc+3])
			pc += 4
		case code.OpMul:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2]) * val(fr, far, dc[pc+3])
			pc += 4
		case code.OpDiv, code.OpMod:
			b := val(fr, far, dc[pc+3])
			if b == 0 {
				return g.trap(t, pc, fp, n, "division by zero")
			}
			a := val(fr, far, dc[pc+2])
			v := a % b
			if dc[pc] == code.OpDiv {
				v = a / b
			}
			fr[dc[pc+1]] = v
			pc += 4
		// Tagged arithmetic strips and reinstates the tag bit: add and
		// subtract use the one-instruction identities, multiply, divide
		// and modulus pay the full strip (the paper's tag-manipulation
		// overhead).
		case code.OpTAdd:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2]) + val(fr, far, dc[pc+3]) - 1
			pc += 4
		case code.OpTSub:
			fr[dc[pc+1]] = val(fr, far, dc[pc+2]) - val(fr, far, dc[pc+3]) + 1
			pc += 4
		case code.OpTMul:
			fr[dc[pc+1]] = ((val(fr, far, dc[pc+2]) >> 1) * (val(fr, far, dc[pc+3]) >> 1) << 1) | 1
			pc += 4
		case code.OpTDiv, code.OpTMod:
			b := val(fr, far, dc[pc+3]) >> 1
			if b == 0 {
				return g.trap(t, pc, fp, n, "division by zero")
			}
			a := val(fr, far, dc[pc+2]) >> 1
			v := a % b
			if dc[pc] == code.OpTDiv {
				v = a / b
			}
			fr[dc[pc+1]] = v<<1 | 1
			pc += 4
		case code.OpNeg:
			fr[dc[pc+1]] = -val(fr, far, dc[pc+2])
			pc += 3
		case code.OpTNeg:
			fr[dc[pc+1]] = 2 - val(fr, far, dc[pc+2])
			pc += 3

		case code.OpEq:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) == val(fr, far, dc[pc+3]))
			pc += 4
		case code.OpNe:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) != val(fr, far, dc[pc+3]))
			pc += 4
		case code.OpLt:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) < val(fr, far, dc[pc+3]))
			pc += 4
		case code.OpLe:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) <= val(fr, far, dc[pc+3]))
			pc += 4
		case code.OpGt:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) > val(fr, far, dc[pc+3]))
			pc += 4
		case code.OpGe:
			fr[dc[pc+1]] = code.EncodeBool(repr, val(fr, far, dc[pc+2]) >= val(fr, far, dc[pc+3]))
			pc += 4

		// A compare fused with the jz that tests its result, at pc+4.
		case opEqJz:
			r := val(fr, far, dc[pc+2]) == val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)
		case opNeJz:
			r := val(fr, far, dc[pc+2]) != val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)
		case opLtJz:
			r := val(fr, far, dc[pc+2]) < val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)
		case opLeJz:
			r := val(fr, far, dc[pc+2]) <= val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)
		case opGtJz:
			r := val(fr, far, dc[pc+2]) > val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)
		case opGeJz:
			r := val(fr, far, dc[pc+2]) >= val(fr, far, dc[pc+3])
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)

		case code.OpNot:
			v := code.DecodeBool(repr, val(fr, far, dc[pc+2]))
			fr[dc[pc+1]] = code.EncodeBool(repr, !v)
			pc += 3

		case code.OpIsBoxed:
			fr[dc[pc+1]] = code.EncodeBool(repr, code.IsBoxedValue(repr, val(fr, far, dc[pc+2])))
			pc += 3
		case opIsBoxedJz:
			r := code.IsBoxedValue(repr, val(fr, far, dc[pc+2]))
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 3
				break run
			}
			n++
			pc = jz(dc, pc+3, r)

		case code.OpTagIs:
			tag := code.DecodeInt(repr, g.Heap.Field(val(fr, far, dc[pc+2]), 0))
			fr[dc[pc+1]] = code.EncodeBool(repr, tag == dc[pc+3])
			pc += 4
		case opTagIsJz:
			r := code.DecodeInt(repr, g.Heap.Field(val(fr, far, dc[pc+2]), 0)) == dc[pc+3]
			fr[dc[pc+1]] = code.EncodeBool(repr, r)
			if n == quantum {
				pc += 4
				break run
			}
			n++
			pc = jz(dc, pc+4, r)

		case code.OpLdFld:
			v := g.Heap.Field(val(fr, far, dc[pc+2]), int(dc[pc+3]))
			if mode&(modePoison|modeSharded) != 0 {
				if err := g.checkLoad(t, pc, fp, n, v, mode); err != nil {
					return err
				}
			}
			fr[dc[pc+1]] = v
			pc += 4
		case opLdFldMove:
			v := g.Heap.Field(val(fr, far, dc[pc+2]), int(dc[pc+3]))
			if mode&(modePoison|modeSharded) != 0 {
				if err := g.checkLoad(t, pc, fp, n, v, mode); err != nil {
					return err
				}
			}
			fr[dc[pc+1]] = v
			if n == quantum {
				pc += 4
				break run
			}
			n++
			fr[dc[pc+5]] = val(fr, far, dc[pc+6])
			pc += 7

		case code.OpStFld:
			obj := val(fr, far, dc[pc+1])
			v := val(fr, far, dc[pc+3])
			g.Heap.SetField(obj, int(dc[pc+2]), v)
			if mode&(modeNursery|modeConcurrent) != 0 {
				g.storeBarrier(pc, obj, int(dc[pc+2]), v, mode)
			}
			pc += 4

		case code.OpCall:
			if mode&(modeCheckCalls|modeBudgets) != 0 && g.stopAtCall(t, pc, fp, n, mode) {
				break run
			}
			// Group.push, inline: calling it from here made the corpus
			// run about 12% slower.
			f := &fns[dc[pc+2]]
			nfp := t.sp
			end := nfp + f.size
			if end > len(t.stack) {
				t.grow(end)
				fr = t.stack[fp:]
			}
			nfr := t.stack[nfp:end]
			nfr[0], nfr[1] = code.Word(fp), code.Word(pc)
			if zeroFill {
				clear(nfr[2:])
				g.Stats.ZeroFilledWords += int64(f.nslots)
			}
			for j, nargs := 0, int(dc[pc+4]); j < nargs; j++ {
				v := val(fr, far, dc[pc+5+j])
				if j < f.nparams {
					nfr[2+j] = v
				} else {
					nfr[2+f.repBase+j-f.nparams] = v
				}
			}
			t.sp = end
			t.depth++
			if end > g.Stats.MaxStackWords {
				g.Stats.MaxStackWords = end
			}
			if t.depth > g.Stats.MaxFrameDepth {
				g.Stats.MaxFrameDepth = t.depth
			}
			g.Stats.Calls++
			pc, fp, fr = f.entry, nfp, nfr

		case code.OpCallC:
			if mode&(modeCheckCalls|modeBudgets) != 0 && g.stopAtCall(t, pc, fp, n, mode) {
				break run
			}
			clos := val(fr, far, dc[pc+2])
			if !code.IsBoxedValue(repr, clos) {
				return g.trap(t, pc, fp, n, "application of an undefined recursive closure")
			}
			f := &fns[code.DecodeInt(repr, g.Heap.Field(clos, 0))]
			arg := val(fr, far, dc[pc+4])
			nfp := t.sp
			nfr := g.push(t, f, fp, pc)
			nfr[2], nfr[3] = clos, arg
			g.Stats.ClosCalls++
			pc, fp, fr = f.entry, nfp, nfr

		case code.OpMkRef, code.OpMkTuple, code.OpMkBox, code.OpMkClos:
			size := int(dc[pc+2])
			var ptr code.Word
			var fields []code.Word
			ok := false
			if mode&modePlain != 0 && g.rgc == 0 {
				ptr, fields, ok = g.Heap.Bump(size)
			}
			if !ok {
				t.pc, t.fp = pc, fp
				g.meter(t, n)
				if ptr, ok = g.allocate(t, size); !ok {
					break run
				}
				fields = g.Heap.Fields(ptr, size)
			}
			t.AllocWords += int64(size)
			g.Stats.Allocations++
			if mode&modeNursery != 0 && !g.Heap.InYoung(ptr) {
				// Objects too large for the nursery are born old; their
				// stores never ran the write barrier, so force the next
				// cycle major.
				g.Col.NoteTenuredAlloc()
			}
			// Operands are read only now: a collection above may have
			// moved what the slots point to.
			switch dc[pc] {
			case code.OpMkRef:
				fields[0] = val(fr, far, dc[pc+3])
				fr[dc[pc+1]] = ptr
				pc += 4
			case code.OpMkTuple:
				for i := range fields {
					fields[i] = val(fr, far, dc[pc+4+i])
				}
				fr[dc[pc+1]] = ptr
				pc += 4 + size
			case code.OpMkBox:
				at := pc + 5
				if tag := dc[pc+3]; tag >= 0 {
					fields[0] = tag
					fields = fields[1:]
				}
				for i := range fields {
					fields[i] = val(fr, far, dc[at+i])
				}
				fr[dc[pc+1]] = ptr
				pc = at + len(fields)
			case code.OpMkClos:
				fields[0] = dc[pc+3]
				for i := 1; i < size; i++ {
					fields[i] = val(fr, far, dc[pc+6+i])
				}
				if self := int(dc[pc+4]); self >= 0 {
					fields[1+int(dc[pc+5])+self] = ptr
				}
				fr[dc[pc+1]] = ptr
				pc += 6 + size
			}

		case code.OpMkRep:
			nc := int(dc[pc+4])
			children := make([]int, nc)
			for j := range children {
				children[j] = int(code.DecodeInt(repr, val(fr, far, dc[pc+5+j])))
			}
			rep := g.Prog.Reps.Intern(code.TDKind(dc[pc+2]), int(dc[pc+3]), children)
			fr[dc[pc+1]] = code.EncodeInt(repr, int64(rep))
			pc += 5 + nc

		case code.OpBuiltin:
			g.builtin(t, dc[pc+2], val(fr, far, dc[pc+3]))
			fr[dc[pc+1]] = code.EncodeInt(repr, 0)
			pc += 4

		case code.OpSetGlobal:
			v := val(fr, far, dc[pc+2])
			if mode&modeSharded != 0 && g.Heap.InYoung(v) {
				// Globals are traced during every shard minor, so the stored
				// pointer itself stays sound — but any task can now copy it
				// onto a stack the shard's minors never scan, so the shard
				// must be blocked from here on.
				g.expose(v)
			}
			far[dc[pc+1]] = v
			pc += 3

		case code.OpMatchFail:
			return g.trap(t, pc, fp, n, "match failure: no pattern matched")

		case code.OpHalt:
			t.Status = Done
			break run

		default:
			return g.trap(t, pc, fp, n, "illegal opcode %d", g.Prog.Code[pc])
		}
	}
	g.leave(t, pc, fp, n)
	return nil
}

// checkLoad vets a word OpLdFld at pc just loaded: under PoisonPruned a
// pruned field faults the task, and in a sharded group a foreign shard's
// young pointer landing on this stack exposes that shard.
func (g *Group) checkLoad(t *Task, pc, fp, n int, v code.Word, mode uint) error {
	if mode&modePoison != 0 && v == code.PrunedWord {
		return g.trap(t, pc, fp, n, "poison: load of pruned field %d — heap-liveness verdict was wrong", int(g.dec.code[pc+3]))
	}
	if mode&modeSharded != 0 && g.Heap.InYoung(v) && g.Heap.YoungShardOf(v) != g.shardOf(t) {
		// A foreign shard's young pointer just landed on this stack; that
		// shard's minors no longer see all their roots. (The word may be an
		// integer aliasing a young address — the exposure is conservative,
		// see expose.)
		g.expose(v)
	}
	return nil
}

// storeBarrier runs the write barrier for OpStFld at pc, which stored v
// into field off of obj.
func (g *Group) storeBarrier(pc int, obj code.Word, off int, v code.Word, mode uint) {
	if mode&modeNursery != 0 {
		// Old→young write barrier: the compiler's store descriptor tells us
		// the stored value's type, so only stores that can hold a pointer
		// ever consult the remembered set. Stack slots and globals need
		// none — they are re-traced as roots.
		if d := g.Prog.StoreDescs[pc]; d != nil && g.Heap.InOld(obj) && g.Heap.InYoung(v) {
			g.Col.Remember(obj, off, d)
		}
		if mode&modeSharded != 0 && g.Heap.InYoung(v) && g.Heap.InYoung(obj) &&
			g.Heap.YoungShardOf(v) != g.Heap.YoungShardOf(obj) {
			// A cross-shard young→young edge: v's shard can no longer
			// collect alone (the edge lives in an object its minors will not
			// trace). Old→young stores need no flag — the remembered set
			// covers them shard-filtered.
			g.expose(v)
		}
	} else if g.Col.ConcActive() {
		// Incremental-update barrier: graying the stored value keeps
		// marking sound when the mutator re-points a field of an
		// already-scanned (black) object at an unmarked target. Same
		// typed-store discipline as the generational barrier — the store
		// descriptor tells the collector how to trace v.
		if d := g.Prog.StoreDescs[pc]; d != nil {
			g.Col.ConcBarrier(d, v)
		}
	}
}

// stopAtCall runs the call-dispatch safe point for t, which has executed
// n instructions of its quantum: the Rgc check (§4) and the per-task
// budgets. It reports whether the task stopped there.
func (g *Group) stopAtCall(t *Task, pc, fp, n int, mode uint) bool {
	if mode&modeCheckCalls != 0 {
		// A raised Rgc diverts the call into the suspension stub. A
		// sharded group has one more register per shard — only the task's
		// own shard's wave parks it.
		g.Stats.RgcChecks++
		if g.rgc != 0 || (mode&modeSharded != 0 && g.rgcShard[g.shardOf(t)] != 0) {
			t.Status = SuspendedCall
			return true
		}
	}
	if mode&modeBudgets != 0 {
		// Budgets are enforced at the same safe points as Rgc: call
		// dispatch is where a task can be stopped without leaving a
		// half-built frame or heap object.
		g.meter(t, n)
		if cause, over := g.overBudget(t, 0); over {
			t.pc, t.fp = pc, fp
			g.faultTask(t, FaultBudget, 0, cause)
			return true
		}
	}
	return false
}

// suspendAlloc parks a task at an allocation of n fields until the coming
// collection, marking the retry so fault injection skips it.
func (t *Task) suspendAlloc(n int) {
	t.Status = SuspendedAlloc
	t.pendingAlloc = n
	t.allocRetry = true
}

// park stops t at its allocation of n fields until the pending Rgc wave
// is served, and reports whether the task may go on to allocate. A task
// with siblings suspends, and the scheduler collects once every task is
// at a safe point. A lone task is the whole wave, so it is served right
// here: no suspension, and the instruction runs once. need marks a wave
// this allocation needs memory from, which a concurrent-cycle pause
// cannot serve.
func (g *Group) park(t *Task, n int, need bool) bool {
	t.suspendAlloc(n)
	if !g.alone() || g.probing {
		return false
	}
	live := []*Task{t}
	if !g.concPause(live, need) {
		g.collectSuspended(live)
	}
	return t.Status == Running
}

// allocate obtains an object of n fields for t's allocation instruction,
// parking the task first when a collection must run. It reports false
// when the task did not get the object: it suspended, or it faulted.
func (g *Group) allocate(t *Task, n int) (code.Word, bool) {
	alone := g.alone()
	if g.BudgetSteps > 0 || g.BudgetAllocWords > 0 {
		// Allocation sites are the other safe point: fault the task before
		// the request touches the heap so an over-quota task cannot trigger
		// collections on its siblings' behalf.
		if cause, over := g.overBudget(t, n); over {
			g.faultTask(t, FaultBudget, n, cause)
			return 0, false
		}
	}
	sharded := g.sharded()
	tShard := 0
	if sharded {
		tShard = g.shardOf(t)
	}
	if g.Policy == SuspendAtAllocs || alone {
		if alone && g.GCConcurrent && g.rgc == 0 {
			// A lone task stands at a safe point here, so it paces the
			// concurrent marker: one slice per allocation.
			g.concAdvance()
		}
		if !alone {
			g.Stats.RgcChecks++
		}
		if g.rgc != 0 || (sharded && g.rgcShard[tShard] != 0) {
			// A wave is pending (another task exhausted the heap, this
			// task's shard has a minor pending, or the concurrent cycle
			// needs a pause): wait here and retry after it.
			if !g.park(t, n, false) {
				return 0, false
			}
		}
	}
	if f := g.Col.Faults; f != nil && !t.allocRetry {
		// Fault injection runs before the real allocation and rides the
		// same collect path a genuine exhaustion would, so injected
		// failures exercise the full ladder. allocRetry guards the
		// post-collection retry: without it, torture (and FailEvery=1)
		// would re-suspend the same allocation forever.
		// A RefillOnly plan targets the moment a TLAB chunk would be carved
		// from the shared heap; every other attempt passes through untouched.
		refill := g.TLABWords > 0 && g.Heap.TLABEligible(n) && !g.Heap.TLABRoom(&t.tlab, n)
		switch {
		case f.Torture:
			if g.rgc == 0 {
				g.Col.Telem.Resilience.TortureCollections++
			}
			g.rgc = 1
			if !g.park(t, n, true) {
				return 0, false
			}
		case f.FailAllocAt(refill):
			g.Col.Telem.Resilience.InjectedOOMs++
			g.startClimb(t)
			if !g.park(t, n, true) {
				return 0, false
			}
		}
	}
	if alone && !g.probing && g.allocBlocked(n) {
		// A lone task checks the heap before allocating and runs the
		// routine collection in place; only what that leaves unsatisfied
		// climbs the ladder.
		g.rgc = 1
		if !g.park(t, n, true) {
			return 0, false
		}
	}
	ptr, err := g.taskAlloc(t, n)
	if err != nil {
		if sharded && g.rgc == 0 && g.rgcShard[tShard] == 0 &&
			!g.exposed[tShard] && g.Col.MinorEligible() && n <= g.Heap.YoungWords() {
			// A nursery-sized request failed in an unexposed, minor-eligible
			// shard: raise only that shard's wave. Its siblings in other
			// shards keep running while the shard collects alone;
			// serviceShardMinors escalates to the global ladder if the shard
			// minor is not enough.
			g.rgcShard[tShard] = 1
			t.suspendAlloc(n)
			return 0, false
		}
		// The typed allocation failure is the ladder's first rung: raise
		// Rgc for an emergency collection; collectSuspended climbs the rest
		// (retry, grow, fault).
		g.startClimb(t)
		if !g.park(t, n, true) {
			return 0, false
		}
		if ptr, err = g.taskAlloc(t, n); err != nil {
			g.faultTask(t, FaultOOM, n, err)
			return 0, false
		}
	}
	t.allocRetry = false
	return ptr, true
}

func (g *Group) builtin(t *Task, id code.BuiltinID, arg code.Word) {
	repr := g.Prog.Repr
	switch id {
	case code.BuiltinPrintInt:
		fmt.Fprintf(&t.Out, "%d", code.DecodeInt(repr, arg))
	case code.BuiltinPrintBool:
		fmt.Fprintf(&t.Out, "%t", code.DecodeBool(repr, arg))
	case code.BuiltinPrintString:
		t.Out.WriteString(g.Prog.Strings[code.DecodeInt(repr, arg)])
	case code.BuiltinPrintNewline:
		t.Out.WriteByte('\n')
	}
}

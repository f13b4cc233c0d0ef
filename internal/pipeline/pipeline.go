// Package pipeline assembles the full compiler and runtime: parse → type
// check → lower → GC-possible analysis → code generation → execution under
// a chosen collection strategy. It is the public entry point used by the
// command-line tools, the examples and the benchmark harness.
package pipeline

import (
	"fmt"

	"tagfree/internal/code"
	"tagfree/internal/compile/codegen"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/compile/lower"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/ir"
	"tagfree/internal/mlang/exhaust"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/types"
	"tagfree/internal/tasking"
	"tagfree/internal/vm"
)

// Options configures compilation and execution.
type Options struct {
	// Strategy selects the collector (and with it the representation the
	// program is compiled for).
	Strategy gc.Strategy
	// HeapWords is the semispace size in words (default 1 << 16).
	HeapWords int
	// DisableGCWordElision keeps a gc_word on every call site even when
	// the §5.1 analysis proves it cannot collect. Required when tasks can
	// suspend at calls (groups of several tasks: any call can become a
	// suspension point) and used by ablations.
	DisableGCWordElision bool
	// UseCFA additionally runs the higher-order (0-CFA) GC-possible
	// refinement, eliding gc_words on closure-call sites whose every
	// possible target cannot allocate (the §5.1 "abstract interpretation"
	// extension the paper defers).
	UseCFA bool
	// DisableLiveness makes every frame map contain all pointer-bearing
	// slots (ablation for experiment E3). Note Appel mode ignores frame
	// maps entirely.
	DisableLiveness bool
	// MarkSweep runs the collector in mark/sweep discipline over a single
	// space of HeapWords words instead of semispace copying (the paper's
	// "will support mark/sweep collection as well", §2). Tag-free
	// strategies only.
	MarkSweep bool
	// SuspendAtAllocs selects the paper's first §4 suspension policy for
	// tasking runs: Rgc is checked only inside allocation routines.
	SuspendAtAllocs bool
	// Parallelism must be 0 or 1: one collector traces every task stack.
	// It remains for callers that pin the sequential collector explicitly;
	// any other value is an error.
	Parallelism int
	// DisableGCFastPath turns off the Compiled strategy's collection fast
	// path (frame-plan cache, pc→site cache, specialized trace kernels —
	// internal/gc/fastpath.go), restoring uncached per-frame resolution.
	// The differential suite's oracle configuration.
	DisableGCFastPath bool
	// MaxSteps bounds execution; 0 means effectively unbounded.
	MaxSteps int64
	// VerifyHeap runs the post-collection heap verifier after every
	// collection (structural invariants plus a typed re-walk of all
	// roots); a violation panics with *gc.VerifyError.
	VerifyHeap bool
	// Torture collects before every allocation — the heaviest fault
	// schedule, exercising every allocation site as a GC point.
	Torture bool
	// FailAllocNth fails the Nth allocation once; FailAllocEvery fails
	// every Kth. Both force the emergency-collection rung of the recovery
	// ladder deterministically.
	FailAllocNth   int64
	FailAllocEvery int64
	// GrowFactor > 1 enables the heap-growth rung of the recovery ladder;
	// MaxHeapWords (0 = unbounded) is its hard ceiling in semispace words.
	GrowFactor   float64
	MaxHeapWords int
	// NurseryWords > 0 enables a generational bump-allocated nursery of
	// NurseryWords words per young half in front of the old region(s).
	// Minor collections evacuate only the nursery, re-tracing stacks and
	// globals as usual (the paper's frame routines make that free) and
	// consulting the old→young remembered set fed by the interpreter's
	// write barrier. Tag-free strategies only — young objects are
	// headerless and evacuation is type-directed.
	NurseryWords int
	// PromoteAfter is the survival count at which nursery objects tenure
	// into the old region (0 = the default of 2).
	PromoteAfter int
	// TLABWords > 0 gives every task a private allocation buffer refilled
	// from the shared heap (or the nursery) in chunks of this many words
	// (-tlab N). Tasking runs only: a single-task program has no
	// allocation contention, and its run ignores the knob.
	TLABWords int
	// FailRefillsOnly restricts FailAllocNth/FailAllocEvery to TLAB refill
	// carves, so injection schedules target the refill path specifically.
	FailRefillsOnly bool
	// BudgetSteps > 0 faults any task that executes more than this many
	// instructions with a BudgetExceeded TaskFault (checked at the same
	// safe points as Rgc). Tasking runs only.
	BudgetSteps int64
	// BudgetAllocWords > 0 faults any task whose cumulative heap allocation
	// would exceed this many words. Tasking runs only.
	BudgetAllocWords int64
	// GCConcurrent arms mostly-concurrent marking (-gc-concurrent): the mark
	// phase runs in budgeted slices interleaved with mutator execution at
	// the existing safe points, bracketed by a brief root-snapshot pause and
	// a bounded final pause that re-scans the stacks and sweeps. Requires
	// MarkSweep, a tag-free typed strategy, and no nursery.
	GCConcurrent bool
	// ConcTriggerPct is the heap-occupancy watermark, in percent, that
	// starts a concurrent cycle (0 = 75).
	ConcTriggerPct int
	// ConcMarkBudget is the words marked per slice (0 = the engine default);
	// ConcMaxSlices bounds the slices per cycle before the watchdog aborts
	// to stop-the-world (0 = derived from the heap size and budget).
	ConcMarkBudget int
	ConcMaxSlices  int
	// Shards > 1 partitions the nursery into per-shard young generations
	// and the task set into shard groups (task ID mod Shards): a shard
	// whose young space fills runs a minor collection over its own tasks
	// alone, without suspending the other shards' mutators. Requires a
	// tag-free strategy and a nursery (NurseryWords > 0), and composes
	// with neither GCConcurrent nor a single-task program. Major
	// collections stay global (all shards, stop-the-world). Tasking runs
	// only. 0 or 1 = the unsharded heap.
	Shards int
	// ShardAssign, when non-nil, overrides the task→shard map by task ID
	// (the interleaving fuzz permutes assignments; entries are reduced mod
	// Shards). Ignored unless Shards > 1.
	ShardAssign []int
	// GCHeapLiveness (-gc-heap-liveness) arms liveness-guided tracing: the
	// compile-side heap-liveness analysis classifies, per frame slot of a
	// recursive datatype at each GC point, whether only the structure's
	// spine can ever be walked again, and eligible collections replace the
	// provably dead element fields with a sentinel instead of retaining
	// them (internal/gc/liveness.go). Compiled strategy only; ineligible
	// collections (other strategies, fast path off, shard minors,
	// concurrent cycles) degrade to full tracing with the refusal
	// counted in Result.Liveness.
	GCHeapLiveness bool
	// PoisonPruned (-poison-pruned) turns any mutator load of the pruning
	// sentinel into a deterministic runtime error — the debug mode that
	// makes heap-liveness verdicts falsifiable. Implies nothing unless
	// GCHeapLiveness is also set (without pruning the sentinel never
	// enters the heap).
	PoisonPruned bool
}

// validateConcurrent checks the -gc-concurrent gating common to both
// execution paths: the incremental marker only exists for the mark/sweep
// discipline, needs typed frame maps (the tagged baseline has none of the
// store descriptors the barrier relies on), and does not compose with the
// nursery (minor cycles move objects mid-mark).
func (o Options) validateConcurrent() error {
	if !o.GCConcurrent {
		return nil
	}
	if !o.MarkSweep {
		return fmt.Errorf("-gc-concurrent requires the mark/sweep discipline (-marksweep)")
	}
	if o.Strategy == gc.StratTagged {
		return fmt.Errorf("-gc-concurrent requires a tag-free strategy")
	}
	if o.NurseryWords > 0 {
		return fmt.Errorf("-gc-concurrent does not compose with the generational nursery")
	}
	return nil
}

// validateShards checks the -shards gating: per-shard minor collection is
// the nursery's machinery partitioned by task group, so it needs the
// typed generational substrate (tag-free strategy + nursery) and cannot
// compose with the concurrent marker (whose cycles assume one global
// collection epoch).
func (o Options) validateShards() error {
	if o.Shards <= 1 {
		return nil
	}
	if o.Strategy == gc.StratTagged {
		return fmt.Errorf("-shards requires a tag-free strategy")
	}
	if o.NurseryWords <= 0 {
		return fmt.Errorf("-shards requires a generational nursery (-gc-nursery)")
	}
	if o.GCConcurrent {
		return fmt.Errorf("-shards does not compose with -gc-concurrent")
	}
	return nil
}

// faultPlan assembles the fault-injection plan implied by the options, or
// nil when no fault knob is set.
func (o Options) faultPlan() *gc.FaultPlan {
	if !o.Torture && o.FailAllocNth == 0 && o.FailAllocEvery == 0 {
		return nil
	}
	return &gc.FaultPlan{
		Torture:    o.Torture,
		FailNth:    o.FailAllocNth,
		FailEvery:  o.FailAllocEvery,
		RefillOnly: o.FailRefillsOnly,
	}
}

// Result is the outcome of running a program.
type Result struct {
	// Raw is main's result word; Value is its integer decoding.
	Raw    code.Word
	Value  int64
	Output string

	VMStats   vm.Stats
	GCStats   gc.Stats
	HeapStats heap.Stats
	// Liveness counts liveness-guided pruning activity and degrades
	// (all zero unless Options.GCHeapLiveness).
	Liveness gc.LivenessStats
	// Telemetry is the collector's per-collection record stream (render
	// with TelemetryTable / TelemetryJSON).
	Telemetry *gc.Telemetry
	Anal      gcanal.Stats
	// MetadataWords is the collector's GC metadata footprint.
	MetadataWords int64
	// DescNodes is the number of unique descriptor nodes in the program.
	DescNodes int
	// CodeWords is the generated code size.
	CodeWords int
}

// Frontend runs parse, type check and lowering, returning the analyzed IR.
func Frontend(src string) (*ir.Program, *types.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	irp, err := lower.Lower(prog, info)
	if err != nil {
		return nil, nil, err
	}
	return irp, info, nil
}

// Build compiles source to a program for the given strategy's
// representation, running the GC-possible analysis first.
func Build(src string, opts Options) (*code.Program, *gcanal.Result, error) {
	irp, _, err := Frontend(src)
	if err != nil {
		return nil, nil, err
	}
	return compileIR(irp, opts)
}

// compileIR is Build after the front end: the GC-possible analysis, the
// optional heap-liveness analysis and code generation over lowered IR.
func compileIR(irp *ir.Program, opts Options) (*code.Program, *gcanal.Result, error) {
	var anal *gcanal.Result
	if opts.UseCFA {
		anal = gcanal.AnalyzeCFA(irp)
	} else {
		anal = gcanal.Analyze(irp)
	}
	if opts.DisableGCWordElision {
		for _, f := range irp.Funcs {
			for _, r := range ir.Rhss(f) {
				switch call := r.(type) {
				case *ir.RCall:
					call.CanGC = true
				case *ir.RCallClos:
					call.CanGC = true
				}
			}
		}
	}
	// Heap liveness runs after the CanGC refinement (and the elision
	// override) so its per-site verdicts line up with the sites codegen
	// will actually emit.
	var hl *gcanal.HeapLiveness
	if opts.GCHeapLiveness {
		hl = gcanal.AnalyzeHeapLiveness(irp)
	}
	prog, err := codegen.CompileWith(irp, opts.Strategy.CompatibleRepr(), hl)
	if err != nil {
		return nil, nil, err
	}
	if opts.DisableLiveness {
		widenFrameMaps(prog)
	}
	return prog, anal, nil
}

// widenFrameMaps replaces every site's live map with the owning function's
// full slot map (the E3 ablation: collection without liveness).
func widenFrameMaps(prog *code.Program) {
	for _, si := range prog.Sites {
		fi := prog.Funcs[si.Func]
		si.Live = fi.AllSlots
	}
	prog.WideMaps = true
}

// Run compiles and executes a program.
func Run(src string, opts Options) (*Result, error) {
	prog, anal, err := Build(src, opts)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, anal, opts)
}

// RunProgram executes an already compiled program as a one-task group:
// the init function, then main applied to unit.
func RunProgram(prog *code.Program, anal *gcanal.Result, opts Options) (*Result, error) {
	m, err := newMachine(prog, opts)
	if err != nil {
		return nil, err
	}
	raw, err := m.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Raw:           raw,
		Value:         code.DecodeInt(prog.Repr, raw),
		Output:        m.Out.String(),
		VMStats:       m.Stats,
		GCStats:       m.Col.Stats,
		HeapStats:     m.Heap.Stats,
		Liveness:      m.Col.Liveness,
		Telemetry:     &m.Col.Telem,
		MetadataWords: m.Col.MetadataSize,
		DescNodes:     prog.DescNodes,
		CodeWords:     len(prog.Code),
	}
	if anal != nil {
		res.Anal = anal.Stats
	}
	return res, nil
}

// newMachine assembles the runtime for a single-task program. The
// tasking-only knobs (allocation buffers, per-task budgets, the
// suspension policy) are left off: with one mutator there is no
// contention for buffers to relieve and no sibling to protect.
func newMachine(prog *code.Program, opts Options) (*vm.VM, error) {
	if opts.Shards > 1 {
		return nil, fmt.Errorf("-shards requires the tasking runtime (-tasks); a single-task program has one mutator and nothing to overlap")
	}
	opts.TLABWords, opts.BudgetSteps, opts.BudgetAllocWords = 0, 0, 0
	opts.SuspendAtAllocs = false
	g, err := newGroup(prog, opts)
	if err != nil {
		return nil, err
	}
	return vm.Over(g)
}

// newGroup builds the heap opts describe and a task group over it with
// every runtime option wired, but no tasks spawned. Single-task programs
// and task groups both start here.
func newGroup(prog *code.Program, opts Options) (*tasking.Group, error) {
	if opts.Parallelism < 0 || opts.Parallelism > 1 {
		return nil, fmt.Errorf("collection is sequential: Parallelism must be 0 or 1, got %d", opts.Parallelism)
	}
	semi := opts.HeapWords
	if semi == 0 {
		semi = 1 << 16
	}
	var h *heap.Heap
	if opts.MarkSweep {
		if opts.Strategy == gc.StratTagged {
			return nil, fmt.Errorf("mark/sweep is implemented for the tag-free strategies")
		}
		h = heap.NewMarkSweep(prog.Repr, semi)
	} else {
		h = heap.New(prog.Repr, semi)
	}
	if err := opts.validateShards(); err != nil {
		return nil, err
	}
	if opts.NurseryWords > 0 {
		if opts.Strategy == gc.StratTagged {
			return nil, fmt.Errorf("the generational nursery requires a tag-free strategy")
		}
		promote := opts.PromoteAfter
		if promote == 0 {
			promote = 2
		}
		// Must run before the first allocation: the nursery re-lays the
		// heap out with the young halves in front of the old region.
		h.EnableNurseryShards(opts.NurseryWords, promote, max(opts.Shards, 1))
	}
	if err := opts.validateConcurrent(); err != nil {
		return nil, err
	}
	g, err := tasking.NewGroupWith(prog, h, opts.Strategy, nil)
	if err != nil {
		return nil, err
	}
	g.Col.DisableFastPath = opts.DisableGCFastPath
	g.Col.Faults = opts.faultPlan()
	if opts.VerifyHeap {
		g.Col.Verify = true
		g.Heap.SetVerify(true)
	}
	g.GrowFactor = opts.GrowFactor
	g.MaxHeapWords = opts.MaxHeapWords
	g.TLABWords = opts.TLABWords
	if opts.Shards > 1 {
		g.Shards = opts.Shards
		g.ShardAssign = opts.ShardAssign
	}
	g.GCConcurrent = opts.GCConcurrent
	g.ConcTriggerPct = opts.ConcTriggerPct
	g.Col.ConcMarkBudget = opts.ConcMarkBudget
	g.Col.ConcMaxSlices = opts.ConcMaxSlices
	g.Col.HeapLiveness = opts.GCHeapLiveness
	g.PoisonPruned = opts.PoisonPruned
	g.BudgetSteps = opts.BudgetSteps
	g.BudgetAllocWords = opts.BudgetAllocWords
	if opts.SuspendAtAllocs {
		g.Policy = tasking.SuspendAtAllocs
	}
	if opts.MaxSteps > 0 {
		g.MaxSteps = opts.MaxSteps
	}
	return g, nil
}

// Warnings type-checks a program and returns its pattern-match
// exhaustiveness and redundancy diagnostics (compilation proceeds
// regardless; an unmatched case is a runtime trap).
func Warnings(src string) ([]exhaust.Warning, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	return exhaust.Check(prog, info), nil
}

// Strategies lists all four collection strategies with stable names, in
// presentation order for the experiment tables.
var Strategies = []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel, gc.StratTagged}

// MustRun is a helper for examples: it runs a program and panics on error.
func MustRun(src string, opts Options) *Result {
	r, err := Run(src, opts)
	if err != nil {
		panic(fmt.Sprintf("pipeline.MustRun: %v", err))
	}
	return r
}

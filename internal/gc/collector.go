package gc

import (
	"fmt"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// Strategy selects the collection method.
type Strategy int

// Collection strategies.
const (
	// StratCompiled is the paper's compiled method: per-call-site frame
	// routines prebuilt from compiler metadata.
	StratCompiled Strategy = iota
	// StratInterp is the Branquart/Lewi interpreted-descriptor method.
	StratInterp
	// StratAppel is the single-descriptor-per-procedure method with
	// per-frame dynamic-chain type resolution.
	StratAppel
	// StratTagged is the tagged baseline (headers + word tags, no
	// compiler metadata).
	StratTagged
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StratCompiled:
		return "compiled"
	case StratInterp:
		return "interp"
	case StratAppel:
		return "appel"
	case StratTagged:
		return "tagged"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// CompatibleRepr returns the value representation a strategy requires.
func (s Strategy) CompatibleRepr() code.Repr {
	if s == StratTagged {
		return code.ReprTagged
	}
	return code.ReprTagFree
}

// TaskRoots describes one task's stack for collection.
type TaskRoots struct {
	Stack []code.Word
	FP    int
	SP    int
	// PC is the instruction the task is stopped at: the allocation
	// instruction for the task that triggered collection, or the call
	// instruction a suspended task is about to execute (tasking, §4).
	PC int
	// AtCall marks a task suspended *before* a call: the call's argument
	// slots are still owned by this frame and join its root set.
	AtCall bool
}

// Stats instruments collection work for the experiment harness.
type Stats struct {
	Collections   int64
	FramesTraced  int64
	SlotsTraced   int64
	ObjectsCopied int64
	// TypeGCBuilt counts distinct type_gc_routine closures constructed.
	TypeGCBuilt int64
	// DescBytesDecoded counts descriptor bytes decoded (interp mode).
	DescBytesDecoded int64
	// ChainSteps counts per-frame dynamic-chain resolution steps (Appel
	// mode; quadratic in stack depth for polymorphic towers).
	ChainSteps int64
	// WordsScanned counts stack/heap words examined by the tagged scan.
	WordsScanned int64
	// PauseNS is the total wall-clock time spent inside collections.
	PauseNS int64
	// PlanHits/PlanMisses count frame-plan cache lookups on the compiled
	// fast path (see fastpath.go); a hit resolves a frame's entire routine
	// without touching the TypeGC builder.
	PlanHits   int64
	PlanMisses int64
	// SiteCacheHits/SiteCacheMisses count pc→site lookups served by the
	// lookup cache versus decoded from the instruction stream.
	SiteCacheHits   int64
	SiteCacheMisses int64
	// KernelWords counts heap words traced by specialized kernels instead
	// of per-word Trace interface dispatch.
	KernelWords int64
	// PrunedWords counts dead element fields sentinel-overwritten instead
	// of traced by the liveness-guided spine-only kernels (liveness.go).
	PrunedWords int64
}

// DebugTrace, when set, logs every frame and slot traced (tests only).
var DebugTrace = false

// Collector runs collections over a heap for one compiled program.
type Collector struct {
	Prog  *code.Program
	Heap  *heap.Heap
	Strat Strategy
	Stats Stats

	// Parallelism accepts only 0 or 1: one collector traces every task
	// stack, and the field is read by nothing. It remains for callers that
	// pin the sequential collector explicitly; pipeline.Options rejects
	// larger values before they reach a collector.
	Parallelism int
	// Telem accumulates per-collection telemetry (see telemetry.go).
	Telem Telemetry
	// Faults, when non-nil, injects allocation failures and forced
	// collections (see faultinject.go).
	Faults *FaultPlan
	// PreCollect, when non-nil, runs at the top of every collection before
	// the heap snapshot and BeginGC. The tasking runtime uses it to retire
	// all live TLABs, so the collector (and any harness calling Collect
	// directly) always sees a fully tiled heap.
	PreCollect func()
	// Verify runs the post-collection heap verifier after every collection
	// (see verify.go); violations panic with a *VerifyError.
	Verify bool
	// DisableFastPath turns off the collection fast path — the pc→site
	// lookup cache, the frame-plan cache and the specialized trace kernels
	// (fastpath.go) — restoring uncached per-frame resolution. The
	// differential suite uses the disabled collector as its oracle; the
	// fast path must produce bit-identical heaps.
	DisableFastPath bool
	// ConcMarkBudget bounds each concurrent marking increment in heap
	// words (0 = DefaultConcMarkBudget); ConcMaxSlices caps how many
	// increments one cycle may run before the watchdog declares the gray
	// queue undrainable and the caller aborts to stop-the-world (0 = a
	// generous heap-size-derived default). See concurrent.go.
	ConcMarkBudget int
	ConcMaxSlices  int

	// HeapLiveness arms liveness-guided tracing: slots whose frame-trace
	// metadata carries a spine-only verdict are traced by pruning kernels
	// that sentinel-overwrite provably dead element fields (liveness.go).
	// Pruning engages per collection only inside its degrade envelope —
	// compiled strategy, fast path on, no shard overlap, no concurrent
	// cycle — and Liveness counts both engagements and every
	// degrade reason.
	HeapLiveness bool
	// Liveness counts liveness-guided pruning activity (see liveness.go);
	// all zero unless HeapLiveness is set.
	Liveness LivenessStats

	// Gen counts generational activity (see generational.go); all zero
	// unless the heap has a nursery.
	Gen GenStats

	b *builder
	// Generational state (generational.go): the typed remembered set with
	// its dedup index, the store-descriptor→routine memo, whether the next
	// collection must be a major, whether the in-progress trace should
	// record old→young edges, and what the last collection was.
	remembered    []remEntry
	remIndex      map[remKey]int
	storeG        map[*code.TypeDesc]TypeGC
	genForceMajor bool
	genTracking   bool
	lastMinor     bool
	// sc is the per-collection scratch arena, reset at the top of every
	// collection.
	sc scratch
	// siteCache is the pc→site lookup cache: siteIdx+1 per code index,
	// zero = unfilled (see siteAtFast).
	siteCache []int32
	// plans is the frame-plan cache (compiled strategy fast path).
	plans map[planKey]*framePlan
	// conc is the in-flight concurrent mark cycle, nil when none is
	// active (concurrent.go).
	conc *concCycle
	// pruneOn marks a collection with liveness-guided pruning engaged;
	// pruneQ holds the deferred spine-only roots drained after every full
	// root has been traced (liveness.go).
	pruneOn bool
	pruneQ  []pruneItem
	// compiledSites holds the prebuilt frame routines (compiled mode).
	compiledSites [][]slotTracer
	// interpSites holds the serialized frame maps (interp mode).
	interpSites [][]byte
	// MetadataSize reports the strategy's GC metadata footprint in words
	// (experiment E4).
	MetadataSize int64
}

// slotTracer is one step of a compiled frame routine.
type slotTracer struct {
	slot   int
	ground TypeGC         // non-nil when the descriptor is monomorphic
	desc   *code.TypeDesc // otherwise resolved against frame type args
	spine  bool           // heap-liveness verdict: only the spine is live
}

// New builds a collector, precompiling the strategy's metadata (the
// analogue of the compiler emitting frame_gc_routines into the binary).
func New(prog *code.Program, h *heap.Heap, strat Strategy) (*Collector, error) {
	if strat.CompatibleRepr() != prog.Repr {
		return nil, fmt.Errorf("gc: strategy %v requires %v representation, program is %v",
			strat, strat.CompatibleRepr(), prog.Repr)
	}
	c := &Collector{Prog: prog, Heap: h, Strat: strat, b: newBuilder()}
	if strat != StratTagged {
		c.siteCache = make([]int32, len(prog.Code))
	}
	switch strat {
	case StratCompiled:
		c.compiledSites = make([][]slotTracer, len(prog.Sites))
		for i, si := range prog.Sites {
			routine := make([]slotTracer, 0, len(si.Live))
			for _, e := range si.Live {
				st := slotTracer{slot: e.Slot, desc: e.Desc, spine: e.Spine}
				if isGround(e.Desc) {
					st.ground = c.FromDesc(e.Desc, nil)
				}
				routine = append(routine, st)
				// A compiled trace step costs roughly a handful of
				// instructions; model routine size as words.
				c.MetadataSize += 4
			}
			c.compiledSites[i] = routine
			c.MetadataSize += 2 // routine prologue/dispatch entry
		}
	case StratInterp:
		c.interpSites = make([][]byte, len(prog.Sites))
		for i, si := range prog.Sites {
			c.interpSites[i] = encodeSite(si)
			c.MetadataSize += int64((len(c.interpSites[i]) + 7) / 8)
		}
	case StratAppel:
		for _, fi := range prog.Funcs {
			// One descriptor per procedure: every pointer-bearing slot.
			c.MetadataSize += int64(len(fi.AllSlots)) // ~1 word per entry
		}
	case StratTagged:
		// No compiler metadata; the cost is paid in headers and tag bits.
	}
	return c, nil
}

func isGround(d *code.TypeDesc) bool {
	if d.Kind == code.TDVar {
		return false
	}
	for _, a := range d.Args {
		if !isGround(a) {
			return false
		}
	}
	return true
}

// scratch is the collector's per-collection arena. Type-argument windows and
// root-job lists used to be allocated per frame and per stack walk — on a
// deep polymorphic tower that is thousands of short-lived slices per
// collection; now both bump-allocate here and the whole arena resets at the
// top of the next collection. Growth never invalidates a window already
// handed out: when a block fills, a fresh block simply becomes the arena
// and earlier windows keep their old backing array.
type scratch struct {
	targs []TypeGC
	jobs  []rootJob
}

func (s *scratch) reset() {
	s.targs = s.targs[:0]
	s.jobs = s.jobs[:0]
}

// typeArgs returns an n-slot window at the arena tail. Callers assign every
// slot, so stale contents from a previous cycle never leak.
func (s *scratch) typeArgs(n int) []TypeGC {
	if n == 0 {
		return nil
	}
	if cap(s.targs)-len(s.targs) < n {
		size := 2 * cap(s.targs)
		if size < 64 {
			size = 64
		}
		for size < n {
			size *= 2
		}
		s.targs = make([]TypeGC, 0, size)
	}
	l := len(s.targs)
	s.targs = s.targs[:l+n]
	return s.targs[l : l+n : l+n]
}

// jobsWindow opens a job window at the arena tail for one task's root set;
// commitJobs closes it. If appends outgrew the block, the window's new
// backing array becomes the arena and earlier windows keep the old one.
func (s *scratch) jobsWindow() []rootJob {
	return s.jobs[len(s.jobs):len(s.jobs)]
}

func (s *scratch) commitJobs(jobs []rootJob) {
	if cap(jobs) > 0 {
		s.jobs = jobs
	}
}

// pkg is the type information a frame's gc routine hands to its callee's:
// resolved type arguments for direct calls, or the closure's structured
// type_gc_routine for closure calls (Figure 4).
type pkg struct {
	direct []TypeGC
	arrow  TypeGC
}

// Collect runs one collection over all task stacks and globals: a minor
// nursery collection when the remembered set can stand in for the old
// region's interior edges (see generational.go), else a full one.
func (c *Collector) Collect(tasks []TaskRoots, globals []code.Word) {
	if c.shouldMinor() {
		c.collectMinor(tasks, globals)
		return
	}
	c.CollectFull(tasks, globals)
}

// shouldMinor reports whether the next collection may be a minor one: a
// nursery is configured and nothing has poisoned the remembered set since
// the last major (untyped store, overflow, pre-tenured allocation).
func (c *Collector) shouldMinor() bool {
	return c.nurseryOn() && !c.genForceMajor
}

// MinorEligible reports whether a minor collection (global or single-shard)
// is currently permissible. The sharded scheduler consults it before
// attempting a shard minor: a poisoned remembered set forces the next
// collection to be a full one regardless of shard.
func (c *Collector) MinorEligible() bool { return c.shouldMinor() }

// CollectFull runs one full (major) collection over all task stacks and
// globals. On a nursery heap it also rebuilds the remembered set from the
// old→young edges the trace observes, discharging any force-major
// condition.
func (c *Collector) CollectFull(tasks []TaskRoots, globals []code.Word) {
	// A stop-the-world collection entered mid-cycle (the OOM recovery
	// ladder, torture mode, a forced major) invalidates the incremental
	// marking: the sweep below would treat its partial mark set as the
	// whole truth. Abort the cycle first — a no-op when none is active.
	c.ConcAbort()
	if c.PreCollect != nil {
		c.PreCollect()
	}
	start := time.Now()
	c.Stats.Collections++
	c.lastMinor = false
	nursery := c.nurseryOn()
	kind := ""
	if nursery {
		kind = "major"
		c.Gen.MajorCollections++
		c.resetRemembered()
	}
	statsBefore := c.Stats
	heapBefore := c.Heap.Stats
	usedBefore := c.Heap.Used() + c.Heap.YoungUsed()
	c.sc.reset()
	c.Heap.BeginGC()
	c.genTracking = nursery

	c.traceGlobals(globals)
	scans := make([]TaskScan, len(tasks))
	c.beginPrune(false)
	c.collectStacks(tasks, scans)
	c.endPrune()

	if c.Strat == StratTagged {
		c.cheneyScan()
	}

	c.Stats.TypeGCBuilt = c.b.Built
	c.genTracking = false
	c.Heap.EndGC()
	pause := time.Since(start).Nanoseconds()
	c.Stats.PauseNS += pause
	c.Telem.record(c, kind, 0, pause, scans, usedBefore, statsBefore, heapBefore)
	if c.Verify {
		c.verifyCollection(tasks, globals)
	}
}

// collectMinor evacuates the nursery only: globals and every task stack are
// re-traced exactly as in a full collection (the paper's frame routines
// make that re-trace cheap, and VisitObject stops the walk at the young/old
// boundary by returning old objects untouched), then the remembered set
// supplies the interior old→young edges.
func (c *Collector) collectMinor(tasks []TaskRoots, globals []code.Word) {
	if c.PreCollect != nil {
		c.PreCollect()
	}
	start := time.Now()
	c.Stats.Collections++
	c.lastMinor = true
	c.Gen.MinorCollections++
	statsBefore := c.Stats
	heapBefore := c.Heap.Stats
	usedBefore := c.Heap.Used() + c.Heap.YoungUsed()
	c.sc.reset()
	c.Heap.BeginMinorGC()
	c.genTracking = true

	c.beginPrune(false)
	c.traceGlobals(globals)
	scans := make([]TaskScan, len(tasks))
	c.collectStacks(tasks, scans)
	c.traceRemembered()
	c.endPrune()

	c.Stats.TypeGCBuilt = c.b.Built
	c.genTracking = false
	c.Heap.EndMinorGC()
	c.refilterRemembered()
	pause := time.Since(start).Nanoseconds()
	c.Stats.PauseNS += pause
	c.Telem.record(c, "minor", 0, pause, scans, usedBefore, statsBefore, heapBefore)
	if c.Verify {
		c.verifyCollection(tasks, globals)
	}
}

// CollectMinorShard evacuates a single nursery shard: tasks must be exactly
// the roots of the tasks assigned to that shard, and the caller (the
// sharded tasking scheduler) must have established the shard's isolation
// invariant — no pointer into the shard's young generation lives outside
// those tasks' stacks, the globals, the shard's own young objects, and the
// remembered set — and retired the shard's young TLABs. Other shards'
// mutators, buffers and bump pointers are untouched, which is the point:
// they keep running while this shard collects. Unlike Collect, there is no
// fallback here; callers check MinorEligible and escalate to a global
// collection themselves when a shard minor is not permitted or did not
// free enough.
func (c *Collector) CollectMinorShard(shard int, tasks []TaskRoots, globals []code.Word) {
	if !c.shouldMinor() {
		panic("gc: CollectMinorShard without minor eligibility (check MinorEligible)")
	}
	start := time.Now()
	c.Stats.Collections++
	c.lastMinor = true
	c.Gen.MinorCollections++
	statsBefore := c.Stats
	heapBefore := c.Heap.Stats
	usedBefore := c.Heap.Used() + c.Heap.YoungUsed()
	c.sc.reset()
	c.Heap.BeginMinorGCShard(shard)
	c.genTracking = true

	// Never prune during a shard minor: other shards' mutators keep
	// running and may hold live paths into structures this shard's roots
	// only reach spine-only — beginPrune refuses and counts the reason.
	c.beginPrune(true)
	c.traceGlobals(globals)
	scans := make([]TaskScan, len(tasks))
	c.collectStacks(tasks, scans)
	c.traceRememberedShard(shard)
	c.endPrune()

	c.Stats.TypeGCBuilt = c.b.Built
	c.genTracking = false
	c.Heap.EndMinorGC()
	c.refilterRemembered()
	pause := time.Since(start).Nanoseconds()
	c.Stats.PauseNS += pause
	c.Telem.record(c, "minor", shard+1, pause, scans, usedBefore, statsBefore, heapBefore)
	if c.Verify {
		c.verifyCollection(tasks, globals)
	}
}

// traceGlobals forwards/marks the global slots.
func (c *Collector) traceGlobals(globals []code.Word) {
	for i, g := range c.Prog.Globals {
		if c.Strat == StratTagged {
			globals[i] = c.traceTaggedWord(globals[i])
		} else {
			gc := c.FromDesc(g.Desc, nil)
			globals[i] = gc.Trace(c, globals[i])
		}
	}
}

// collectStacks scans the task stacks one at a time, in task order,
// recording each task's share of the work in scans.
func (c *Collector) collectStacks(tasks []TaskRoots, scans []TaskScan) {
	for i := range tasks {
		wordsBefore := c.Heap.Stats.WordsCopied
		snap := c.Stats
		if c.Strat == StratTagged {
			c.collectTaggedTask(tasks[i])
		} else {
			c.collectTask(tasks[i])
		}
		scans[i] = TaskScan{
			Task:    i,
			Frames:  c.Stats.FramesTraced - snap.FramesTraced,
			Slots:   c.Stats.SlotsTraced - snap.SlotsTraced,
			Objects: c.Stats.ObjectsCopied - snap.ObjectsCopied,
			Words:   c.Heap.Stats.WordsCopied - wordsBefore,
		}
	}
}

// collectTask walks one task's stack oldest→newest, passing type packages
// frame to frame (§3: "the stack is traversed at most twice" — one pass to
// gather frame pointers, one to trace).
func (c *Collector) collectTask(t TaskRoots) {
	fps, pcs := frameChain(t)
	fast := c.Strat == StratCompiled && !c.DisableFastPath
	var incoming pkg
	var ic planIC
	var prev *framePlan
	for i, fp := range fps {
		siteIdx, site := c.siteAtFast(pcs[i], &c.Stats)
		fi := c.Prog.Funcs[site.Func]
		if fast {
			// Compiled fast path: resolve the frame's plan — through the
			// caller plan's edge cache when possible, otherwise by type
			// arguments — then run it: slot routines, kernels, dedupe and
			// outgoing package all precomputed per (site, instantiation).
			plan := c.planForEdge(prev, &ic, siteIdx, site, fi, incoming, t.Stack, fp, &c.Stats)
			c.tracePlan(plan, t.Stack, fp+2, t.AtCall && i == len(fps)-1)
			incoming, prev = plan.out, plan
			continue
		}
		var targs []TypeGC
		if c.Strat == StratAppel {
			targs = c.appelTypeArgs(t, fps, pcs, i, &c.Stats)
		} else {
			targs = c.frameTypeArgs(fi, incoming, t.Stack, fp)
		}
		c.traceFrame(siteIdx, site, fi, t.Stack, fp, targs, t.AtCall && i == len(fps)-1)
		if i < len(fps)-1 && c.Strat != StratAppel {
			incoming = c.outgoing(site, targs)
		}
	}
	c.Stats.FramesTraced += int64(len(fps))
}

// frameChain returns the frame pointers oldest-first and the pc each frame
// is blocked at (the callee's stored return address, or the task's current
// pc for the newest frame). Gathering the chain is the paper's initial
// pointer-reversal traversal, realized as an index pass.
func frameChain(t TaskRoots) (fps, pcs []int) {
	for fp := t.FP; fp >= 0; fp = int(t.Stack[fp]) {
		fps = append(fps, fp)
	}
	// Reverse to oldest-first.
	for i, j := 0, len(fps)-1; i < j; i, j = i+1, j-1 {
		fps[i], fps[j] = fps[j], fps[i]
	}
	pcs = make([]int, len(fps))
	for i := range fps {
		if i == len(fps)-1 {
			pcs[i] = t.PC
		} else {
			pcs[i] = int(t.Stack[fps[i+1]+1])
		}
	}
	return fps, pcs
}

// siteAt reads the gc_word embedded next to the call/alloc instruction at
// pc — the Figure 1 lookup.
func (c *Collector) siteAt(pc int) (int, *code.SiteInfo) {
	op := c.Prog.Code[pc]
	off := code.GCWordOffset(op)
	if off < 0 {
		panic(fmt.Sprintf("gc: no gc_word at pc %d (op %s)", pc, code.OpName(op)))
	}
	gcw := c.Prog.Code[pc+off]
	if gcw < 0 {
		panic(fmt.Sprintf("gc: collection at elided gc_word (pc %d)", pc))
	}
	return int(gcw), c.Prog.Sites[gcw]
}

// frameTypeArgs resolves a frame's type environment. Windows come from the
// collector's scratch arena, valid until the next collection begins.
func (c *Collector) frameTypeArgs(fi *code.FuncInfo, incoming pkg, stack []code.Word, fp int) []TypeGC {
	switch fi.TypeSource {
	case code.TypeSourceNone:
		return nil
	case code.TypeSourceCallSite:
		return incoming.direct
	case code.TypeSourceEnv:
		env := stack[fp+2] // slot 0: the closure being executed
		return c.envTypeArgs(fi, env, incoming.arrow)
	}
	return nil
}

// envTypeArgs derives a closure-called frame's type arguments from the
// call-site package (derivable entries) and the closure's rep words.
func (c *Collector) envTypeArgs(fi *code.FuncInfo, clos code.Word, ref TypeGC) []TypeGC {
	targs := c.sc.typeArgs(fi.TypeEnvLen)
	for i := 0; i < fi.TypeEnvLen; i++ {
		switch {
		case fi.RepWord != nil && fi.RepWord[i] >= 0 && code.IsBoxedValue(c.Heap.Repr, clos):
			h := int(code.DecodeInt(c.Heap.Repr, c.Heap.Field(clos, 1+fi.RepWord[i])))
			targs[i] = c.FromRep(h)
		case fi.Derivs != nil && fi.Derivs[i] != nil && ref != nil:
			targs[i] = ApplyPath(ref, fi.Derivs[i])
		default:
			targs[i] = c.b.Const()
		}
	}
	return targs
}

// outgoing builds the package this frame's routine passes to its callee's.
func (c *Collector) outgoing(site *code.SiteInfo, targs []TypeGC) pkg {
	switch site.Kind {
	case code.SiteCall:
		out := make([]TypeGC, len(site.CalleeInst))
		for i, d := range site.CalleeInst {
			out[i] = c.FromDesc(d, targs)
		}
		return pkg{direct: out}
	case code.SiteCallC:
		return pkg{arrow: c.FromDesc(site.SiteType, targs)}
	}
	return pkg{}
}

// traceFrame traces one frame's slots per the strategy.
func (c *Collector) traceFrame(siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, stack []code.Word, fp int, targs []TypeGC, atCall bool) {
	base := fp + 2
	if DebugTrace {
		fmt.Printf("  frame %s (fp=%d targs=%d) site kind=%d live=%d calleeInst=%d callee=%s\n",
			c.Prog.Funcs[site.Func].Name, fp, len(targs), site.Kind, len(site.Live),
			len(site.CalleeInst), c.Prog.Funcs[site.Callee].Name)
	}
	// When the frame is suspended at a call, the site's argument map is
	// walked after the frame's own slots; any slot both walks cover must be
	// traced once only. A second Trace of the same slot would dereference
	// the to-space pointer the first trace wrote there (Appel mode hits
	// this: AllSlots ignores liveness and so covers the staged arguments).
	var traced slotSet
	note := func(slot int) {
		if atCall {
			traced.add(slot)
		}
	}
	switch c.Strat {
	case StratCompiled:
		for _, st := range c.compiledSites[siteIdx] {
			g := st.ground
			if g == nil {
				g = c.FromDesc(st.desc, targs)
			}
			if DebugTrace {
				fmt.Printf("    slot %d val=%d desc=%s\n", st.slot, stack[base+st.slot], st.desc)
			}
			stack[base+st.slot] = g.Trace(c, stack[base+st.slot])
			c.Stats.SlotsTraced++
			note(st.slot)
		}
	case StratInterp:
		c.interpTraceFrame(c.interpSites[siteIdx], stack, base, targs, &traced, atCall)
	case StratAppel:
		for _, e := range fi.AllSlots {
			g := c.FromDesc(e.Desc, targs)
			stack[base+e.Slot] = g.Trace(c, stack[base+e.Slot])
			c.Stats.SlotsTraced++
			note(e.Slot)
		}
	}
	if atCall {
		// A task suspended before executing a call still owns the call's
		// argument values in its own slots; trace them through the site's
		// argument map (tasking, §4).
		for _, e := range site.Args {
			if traced.has(e.Slot) {
				continue
			}
			g := c.FromDesc(e.Desc, targs)
			stack[base+e.Slot] = g.Trace(c, stack[base+e.Slot])
			c.Stats.SlotsTraced++
		}
	}
}

// ---------------------------------------------------------------------------
// Appel-mode type resolution: re-walk the chain for every frame.
// ---------------------------------------------------------------------------

// appelTypeArgs resolves frame i's type arguments by walking the dynamic
// chain from the bottom every time — "the tracing of each polymorphic
// function's activation record may involve traversing a fair amount of the
// stack" (§1.1.1/§3). The work is O(i) per frame, O(n²) per collection.
// Chain steps land in st, so root resolution can count into discarded stats.
func (c *Collector) appelTypeArgs(t TaskRoots, fps, pcs []int, target int, st *Stats) []TypeGC {
	var incoming pkg
	for j := 0; j <= target; j++ {
		_, site := c.siteAtFast(pcs[j], st)
		fi := c.Prog.Funcs[site.Func]
		targs := c.frameTypeArgs(fi, incoming, t.Stack, fps[j])
		st.ChainSteps++
		if j == target {
			return targs
		}
		incoming = c.outgoing(site, targs)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tagged baseline.
// ---------------------------------------------------------------------------

// collectTaggedTask scans every word of every frame by tag bits. No
// compiler metadata is consulted: frame extents come from the dynamic
// links alone.
func (c *Collector) collectTaggedTask(t TaskRoots) {
	fps, _ := frameChain(t)
	for i, fp := range fps {
		var end int
		if i == len(fps)-1 {
			end = t.SP
		} else {
			end = fps[i+1]
		}
		for j := fp + 2; j < end; j++ {
			c.Stats.WordsScanned++
			t.Stack[j] = c.traceTaggedWord(t.Stack[j])
		}
	}
	c.Stats.FramesTraced += int64(len(fps))
}

// traceTaggedWord forwards one word if it is a pointer.
func (c *Collector) traceTaggedWord(w code.Word) code.Word {
	if !code.IsBoxedValue(code.ReprTagged, w) {
		return w
	}
	if fwd, ok := c.Heap.Forwarded(w); ok {
		return fwd
	}
	n := c.Heap.ObjLen(w)
	nw := c.Heap.CopyObject(w, n)
	c.Stats.ObjectsCopied++
	return nw
}

// cheneyScan completes the tagged collection: scan to-space linearly,
// forwarding every pointer field (headers give object extents). The scan
// runs batched — one callback per object over its field words in place —
// instead of one indirect call per word.
func (c *Collector) cheneyScan() {
	c.Heap.ScanToSpaceBatched(func(fields []code.Word) {
		c.Stats.WordsScanned += int64(len(fields))
		for i, w := range fields {
			fields[i] = c.traceTaggedWord(w)
		}
	})
}

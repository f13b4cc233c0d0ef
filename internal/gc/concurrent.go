package gc

import (
	"time"

	"tagfree/internal/code"
	"tagfree/internal/heap"
)

// Mostly-concurrent marking for the mark/sweep discipline. A stop-the-world
// collection suspends every task for the whole mark phase; this mode splits
// the cycle into three parts so the mutator only ever stops for the two
// short ends:
//
//  1. Initial pause (ConcStart): snapshot the roots. Frame plans make this
//     cheap — the pure resolution half of a collection (taskJobs) walks
//     every stack without mutating anything, and the resolved root values
//     seed an explicit gray stack.
//  2. Incremental mark (ConcSlice): the scheduler runs bounded marking
//     increments at its existing suspension/safe points, interleaved with
//     task quanta. Each slice pops gray entries, marks objects through the
//     heap's ordinary VisitObject, and pushes their children back gray.
//     While the cycle is active the OpStFld typed write barrier grays
//     every re-pointed target (ConcBarrier): the incremental-update
//     discipline. New objects are born white; a mark slice never
//     runs between an allocation and its initializing stores (slices only
//     run at safe points), so a new object is reachable either through a
//     barriered store into a black object or through a root the final
//     pause re-scans.
//  3. Final pause (ConcFinish): drain the residual gray set, then re-run
//     every stack's (memoized, cheap) frame-trace plan plus the globals
//     through the ordinary serial marker — Trace stops at already-marked
//     objects, which is what bounds this pause — and sweep.
//
// The scheduler is single-goroutine (tasks interleave at quantum
// boundaries), so "concurrent" here is logical interleaving at safe
// points: fully deterministic, which is what lets the differential suite
// demand gc.LiveSignature bit-equality against the stop-the-world oracle.
// Concurrent marking may retain floating garbage (an object that died
// mid-cycle after being marked), so the marked SET can be a superset of a
// stop-the-world mark — but the live graph, and therefore the signature
// and the verifier's typed re-walk, are identical.
//
// The watchdog rung: a cycle that fails to drain its gray queue within
// ConcMaxSlices increments (a store-heavy mutator regraying faster than
// slices mark) is aborted — marks reset, ConcAborts counted — and the
// caller falls back to an ordinary stop-the-world collection. Any
// stop-the-world collection entered while a cycle is active (the OOM
// recovery ladder, torture mode, a forced major) likewise aborts the cycle
// first, automatically, at the top of CollectFull.

// grayEntry is one pending trace: a value and the routine describing it.
type grayEntry struct {
	w code.Word
	g TypeGC
}

// concCycle is the state of one in-flight concurrent mark cycle.
type concCycle struct {
	gray []grayEntry
	// maxSlices is the cycle's resolved watchdog budget.
	maxSlices int64
	// Telemetry for the finishing record's Conc block.
	initialPauseNS int64
	markSlices     int64
	sliceWords     int64
	barrierGrays   int64
	// Cycle-start snapshots, so the finishing record's deltas cover the
	// whole cycle (snapshot resolution, every slice, the final pause).
	statsBefore   Stats
	heapBefore    heap.Stats
	usedBefore    int
	markedAtStart int64
}

// DefaultConcMarkBudget is the per-slice marking budget in heap words when
// Collector.ConcMarkBudget is zero.
const DefaultConcMarkBudget = 4096

// ConcSliceResult reports what a marking increment left behind.
type ConcSliceResult int

const (
	// ConcMore: gray entries remain; keep interleaving slices.
	ConcMore ConcSliceResult = iota
	// ConcDrained: the gray queue is empty; run ConcFinish at the next
	// safe point.
	ConcDrained
	// ConcOverBudget: the slice budget elapsed with gray work remaining.
	// The caller must ConcAbort and fall back to stop-the-world.
	ConcOverBudget
)

// ConcActive reports whether a concurrent mark cycle is in flight.
func (c *Collector) ConcActive() bool { return c.conc != nil }

// ConcStart begins a concurrent mark cycle: the initial pause. It
// snapshots every task's root set (values + routines) and the globals onto
// the gray stack without marking anything, so the pause cost is exactly
// the pure resolution half of a collection. Mark/sweep, non-nursery,
// typed strategies only.
func (c *Collector) ConcStart(tasks []TaskRoots, globals []code.Word) {
	if c.conc != nil {
		panic("gc: ConcStart: a concurrent cycle is already active")
	}
	if c.Heap.Kind() != heap.MarkSweep || c.Strat == StratTagged || c.nurseryOn() {
		panic("gc: ConcStart: concurrent marking requires a non-nursery mark/sweep heap and a typed strategy")
	}
	if c.HeapLiveness {
		// Liveness-guided pruning never composes with a concurrent cycle:
		// the snapshot roots predate the final pause's verdicts, so the
		// whole cycle traces in full. Counted once per cycle, here.
		c.Liveness.DegradedConcurrent++
	}
	start := time.Now()
	cy := &concCycle{
		statsBefore:   c.Stats,
		heapBefore:    c.Heap.Stats,
		usedBefore:    c.Heap.Used(),
		markedAtStart: c.Heap.Stats.WordsCopied,
	}
	budget := int64(c.ConcMarkBudget)
	if budget <= 0 {
		budget = DefaultConcMarkBudget
	}
	cy.maxSlices = int64(c.ConcMaxSlices)
	if cy.maxSlices <= 0 {
		// Derived watchdog: marking visits at most the heap's words once,
		// so 8× that many budgeted slices only trips when barrier regraying
		// outruns the slices for the whole cycle.
		cy.maxSlices = 64 + 8*int64(c.Heap.SemiWords())/budget
	}
	for i, g := range c.Prog.Globals {
		cy.gray = append(cy.gray, grayEntry{w: globals[i], g: c.FromDesc(g.Desc, nil)})
	}
	c.sc.reset()
	for i := range tasks {
		jobs := c.taskJobs(tasks[i], &c.Stats)
		for j := range jobs {
			cy.gray = append(cy.gray, grayEntry{w: tasks[i].Stack[jobs[j].idx], g: jobs[j].g})
			c.Stats.SlotsTraced++
		}
	}
	cy.initialPauseNS = time.Since(start).Nanoseconds()
	c.Stats.PauseNS += cy.initialPauseNS
	c.conc = cy
}

// ConcSlice runs one bounded marking increment: pop gray entries, mark,
// push children, until ConcMarkBudget words are claimed or the queue
// drains. Call only at mutator safe points (between task quanta, at
// allocation boundaries) — never between an allocation and its
// initializing stores.
func (c *Collector) ConcSlice() ConcSliceResult {
	cy := c.conc
	if cy == nil {
		panic("gc: ConcSlice without an active cycle")
	}
	if len(cy.gray) == 0 {
		return ConcDrained
	}
	if cy.markSlices >= cy.maxSlices {
		return ConcOverBudget
	}
	budget := int64(c.ConcMarkBudget)
	if budget <= 0 {
		budget = DefaultConcMarkBudget
	}
	cy.markSlices++
	var words int64
	for words < budget && len(cy.gray) > 0 {
		e := cy.gray[len(cy.gray)-1]
		cy.gray = cy.gray[:len(cy.gray)-1]
		words += c.concMark(e.g, e.w)
	}
	cy.sliceWords += words
	if len(cy.gray) == 0 {
		return ConcDrained
	}
	return ConcMore
}

// ConcBarrier grays the target of a mutator store executed while a cycle
// is active — the incremental-update write barrier. desc is the stored
// value's static descriptor from Program.StoreDescs. A non-ground
// descriptor cannot be resolved outside its frame (the same limit the
// generational barrier hits); the cycle is aborted and the heap falls back
// to an ordinary stop-the-world collection at the next trigger.
func (c *Collector) ConcBarrier(desc *code.TypeDesc, v code.Word) {
	cy := c.conc
	if cy == nil || !code.IsBoxedValue(c.Heap.Repr, v) {
		return
	}
	g, ok := c.storeRoutine(desc)
	if !ok {
		c.ConcAbort()
		return
	}
	if c.Heap.MarkedShared(v) {
		return
	}
	cy.gray = append(cy.gray, grayEntry{w: v, g: g})
	cy.barrierGrays++
}

// ConcFinish completes the cycle: the bounded final pause. The residual
// gray set is drained first (establishing that every marked object's
// children are marked), then every stack and the globals are re-scanned
// through the ordinary serial path — Trace stops at marked objects, so the
// re-scan only pays for what the mutator created or re-pointed since the
// snapshot — and the sweep runs inside the usual BeginGC/EndGC window.
func (c *Collector) ConcFinish(tasks []TaskRoots, globals []code.Word) {
	cy := c.conc
	if cy == nil {
		panic("gc: ConcFinish without an active cycle")
	}
	if c.PreCollect != nil {
		c.PreCollect()
	}
	start := time.Now()
	c.Stats.Collections++
	c.lastMinor = false
	c.sc.reset()
	c.Heap.BeginGC()
	for len(cy.gray) > 0 {
		e := cy.gray[len(cy.gray)-1]
		cy.gray = cy.gray[:len(cy.gray)-1]
		c.concMark(e.g, e.w)
	}
	c.traceGlobals(globals)
	scans := make([]TaskScan, len(tasks))
	c.collectStacks(tasks, scans)
	c.Stats.TypeGCBuilt = c.b.Built
	c.Heap.EndGC()
	finalPause := time.Since(start).Nanoseconds()
	c.Stats.PauseNS += finalPause
	c.conc = nil
	c.Telem.record(c, "", 0, cy.initialPauseNS+finalPause, scans,
		cy.usedBefore, cy.statsBefore, cy.heapBefore)
	c.Telem.Records[len(c.Telem.Records)-1].Conc = &ConcRecord{
		InitialPauseNS: cy.initialPauseNS,
		FinalPauseNS:   finalPause,
		MarkSlices:     cy.markSlices,
		SliceWords:     cy.sliceWords,
		BarrierGrays:   cy.barrierGrays,
	}
	if c.Verify {
		c.verifyCollection(tasks, globals)
	}
}

// ConcAbort abandons an active cycle: marks reset, the marked-word counter
// rolled back to the cycle start, the abort counted. A no-op without an
// active cycle, so stop-the-world entry points may call it
// unconditionally. The trace-work counters (frames, slots, objects) keep
// the cycle's contribution — the work was really done — but the next
// collection's record snapshots its own baselines, so no record mixes the
// two.
func (c *Collector) ConcAbort() {
	cy := c.conc
	if cy == nil {
		return
	}
	c.Heap.ResetMarks()
	c.Heap.Stats.WordsCopied = cy.markedAtStart
	c.Telem.Resilience.ConcAborts++
	c.conc = nil
}

// concMark traces one gray entry: mark the object, account its words, push
// its children gray. The explicit gray stack replaces Trace's recursion so
// a slice can stop between objects.
// Field values are read at mark time: once the object is black, any later
// re-pointing goes through ConcBarrier.
func (c *Collector) concMark(g TypeGC, w code.Word) int64 {
	repr := c.Heap.Repr
	switch g := g.(type) {
	case *constG:
		return 0
	case *refG:
		if !code.IsBoxedValue(repr, w) {
			return 0
		}
		if _, fresh := c.Heap.VisitObject(w, 1); !fresh {
			return 0
		}
		c.Stats.ObjectsCopied++
		c.concPush(c.Heap.Field(w, 0), g.elem)
		return 1
	case *tupleG:
		if !code.IsBoxedValue(repr, w) {
			return 0
		}
		if _, fresh := c.Heap.VisitObject(w, len(g.fields)); !fresh {
			return 0
		}
		c.Stats.ObjectsCopied++
		for i, f := range g.fields {
			c.concPush(c.Heap.Field(w, i), f)
		}
		return int64(len(g.fields))
	case *dataG:
		if !code.IsBoxedValue(repr, w) {
			return 0
		}
		off, tag := 0, 0
		if g.layout.HasTagWord {
			tag = int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
			off = 1
		}
		fields := g.layout.Boxed[tag].Fields
		if _, fresh := c.Heap.VisitObject(w, off+len(fields)); !fresh {
			return 0
		}
		c.Stats.ObjectsCopied++
		for i, fd := range fields {
			c.concPush(c.Heap.Field(w, off+i), c.FromDesc(fd, g.args))
		}
		return int64(off + len(fields))
	case *arrowG:
		if !code.IsBoxedValue(repr, w) {
			return 0 // null placeholder of a not-yet-patched recursive closure
		}
		fidx := int(code.DecodeInt(repr, c.Heap.Field(w, 0)))
		fi := c.Prog.Funcs[fidx]
		size := 1 + fi.NumRepWords + len(fi.Captures)
		if _, fresh := c.Heap.VisitObject(w, size); !fresh {
			return 0
		}
		c.Stats.ObjectsCopied++
		env := c.closureEnv(fi, w, g)
		for i, capDesc := range fi.Captures {
			c.concPush(c.Heap.Field(w, 1+fi.NumRepWords+i), c.FromDesc(capDesc, env))
		}
		return int64(size)
	}
	panic("gc: concMark: unknown TypeGC node")
}

// concPush queues one child value; const-typed children are dropped at the
// push (they can only ever trace to nothing).
func (c *Collector) concPush(w code.Word, g TypeGC) {
	if _, isConst := g.(*constG); isConst {
		return
	}
	c.conc.gray = append(c.conc.gray, grayEntry{w: w, g: g})
}

package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"tagfree/internal/code"
	"tagfree/internal/compile/codegen"
	"tagfree/internal/compile/gcanal"
	"tagfree/internal/compile/lower"
	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/ir"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/types"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/vm"
)

// job is one generated program with its expected results: a single-task
// program (main's value and printed output) or a task program (one value
// per entry).
type job struct {
	src       string
	want      int64
	wantOut   string
	entries   []string
	wantTasks []int64
	heapWords int
}

// processCPU is the CPU time all the process's threads have used, in ns.
// Unlike wall time it leaves out the time the host took the CPU away
// (steal, preemption), which on a shared host varies by tens of percent
// from one minute to the next.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (j *job) tasks() bool { return j.entries != nil }

// options is the default configuration: compiled strategy, copying heap,
// collection fast path on, sequential collection.
func (j *job) options() pipeline.Options {
	return pipeline.Options{Strategy: gc.StratCompiled, Parallelism: 1, HeapWords: j.heapWords}
}

// counters are the op's deterministic work counts: the same program must
// reproduce them exactly on every execution.
type counters struct {
	Instructions, Calls, RgcChecks               int64
	Allocations, WordsAllocated, WordsCopied     int64
	Collections, FramesTraced, SlotsTraced       int64
	ObjectsCopied, PlanHits, PlanMisses          int64
	KernelWords, TypeGCBuilt                     int64
	CodeWords, MetadataWords, Sites, ElidedSites int64
	PeakLive, SuspendLatencyP50                  int64
}

// opResult is one op: a program taken from source to a checked result.
type opResult struct {
	// Wall and process CPU time of the whole op and of its compile step.
	totalNS, compileNS int64
	cpuNS, compileCPU  int64
	pauses             []int64
	c                  counters
	err                error
}

func gatherTasks(o *opResult, g *tasking.Group) {
	o.c.Instructions, o.c.RgcChecks = g.Stats.Instructions, g.Stats.RgcChecks
	lat := append([]int64(nil), g.Stats.SuspendLatency...)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	if len(lat) > 0 {
		o.c.SuspendLatencyP50 = lat[(len(lat)-1)/2]
	}
	gatherCommon(o, g.Prog, g.Col.MetadataSize, g.Col.Stats, g.Heap.Stats, g.Col.Telem.Records)
}

func gatherCommon(o *opResult, prog *code.Program, metaWords int64, st gc.Stats, hs heap.Stats, recs []gc.CollectionRecord) {
	o.c.Allocations, o.c.WordsAllocated, o.c.WordsCopied = hs.Allocations, hs.WordsAllocated, hs.WordsCopied
	o.c.Collections, o.c.FramesTraced, o.c.SlotsTraced = st.Collections, st.FramesTraced, st.SlotsTraced
	o.c.ObjectsCopied, o.c.PlanHits, o.c.PlanMisses = st.ObjectsCopied, st.PlanHits, st.PlanMisses
	o.c.KernelWords, o.c.TypeGCBuilt = st.KernelWords, st.TypeGCBuilt
	o.c.CodeWords, o.c.MetadataWords, o.c.Sites = int64(len(prog.Code)), metaWords, int64(len(prog.Sites))
	o.c.PeakLive = hs.PeakLive
	for _, r := range recs {
		o.pauses = append(o.pauses, r.PauseNS)
	}
}

// checkSingle compares main's value and output with the Go reference.
func (j *job) checkSingle(value int64, out string) error {
	if value != j.want || out != j.wantOut {
		return fmt.Errorf("main = %d, output %q; reference %d, %q", value, out, j.want, j.wantOut)
	}
	return nil
}

func (j *job) checkTasks(g *tasking.Group) error {
	for i, t := range g.Tasks {
		if t.Status != tasking.Done {
			return fmt.Errorf("task %s ended %v: %v", j.entries[i], t.Status, t.Fault)
		}
		if v := code.DecodeInt(g.Prog.Repr, t.Result); v != j.wantTasks[i] {
			return fmt.Errorf("task %s = %d, reference %d", j.entries[i], v, j.wantTasks[i])
		}
	}
	return nil
}

// run executes the op through the public pipeline API, untraced.
func (j *job) run() (o opResult) {
	opts := j.options()
	t0, c0 := time.Now(), processCPU()
	defer func() { o.totalNS, o.cpuNS = time.Since(t0).Nanoseconds(), processCPU()-c0 }()
	if j.tasks() {
		g, entries, err := pipeline.BuildTaskGroup(j.src, j.entries, opts)
		o.compileNS, o.compileCPU = time.Since(t0).Nanoseconds(), processCPU()-c0
		if err != nil {
			o.err = err
			return
		}
		for _, e := range entries {
			g.Spawn(e)
		}
		if o.err = g.RunInit(); o.err == nil {
			o.err = g.Run()
		}
		if o.err == nil {
			o.err = j.checkTasks(g)
		}
		gatherTasks(&o, g)
		return
	}
	prog, anal, err := pipeline.Build(j.src, opts)
	o.compileNS, o.compileCPU = time.Since(t0).Nanoseconds(), processCPU()-c0
	if err != nil {
		o.err = err
		return
	}
	res, err := pipeline.RunProgram(prog, anal, opts)
	if err != nil {
		o.err = err
		return
	}
	o.err = j.checkSingle(res.Value, res.Output)
	o.c.Instructions, o.c.Calls = res.VMStats.Instructions, res.VMStats.Calls+res.VMStats.ClosCalls
	o.c.ElidedSites = int64(res.Anal.ElidedSites)
	gatherCommon(&o, prog, res.MetadataWords, res.GCStats, res.HeapStats, res.Telemetry.Records)
	return
}

// runTraced executes the op through the same stages pipeline.Build,
// RunProgram and BuildTaskGroup call, with a span around each call. The
// determinism check pins it to run: both must produce identical counters.
func (j *job) runTraced(tr *tracer, op int) (o opResult) {
	opts := j.options()
	root := tr.begin("op", op, -1)
	t0, c0 := time.Now(), processCPU()
	defer func() {
		tr.end(root)
		o.totalNS, o.cpuNS = time.Since(t0).Nanoseconds(), processCPU()-c0
	}()
	comp := tr.begin("compile", op, root)
	prog, anal, err := j.buildTraced(tr, op, comp)
	tr.end(comp)
	o.compileNS, o.compileCPU = time.Since(t0).Nanoseconds(), processCPU()-c0
	if err != nil {
		o.err = err
		return
	}
	semi := opts.HeapWords
	if semi == 0 {
		semi = 1 << 16
	}
	load := tr.begin("load", op, root)
	h := heap.New(prog.Repr, semi)
	if j.tasks() {
		g, err := tasking.NewGroupWith(prog, h, opts.Strategy, nil)
		tr.end(load)
		if err != nil {
			o.err = err
			return
		}
		g.Col.Parallelism = opts.Parallelism
		for _, name := range j.entries {
			g.Spawn(prog.FuncByName(name))
		}
		run := tr.begin("tasking.run", op, root)
		if o.err = g.RunInit(); o.err == nil {
			o.err = g.Run()
		}
		tr.end(run)
		tr.spans[run].hiddenNS = g.Col.Telem.TotalPauseNS()
		if o.err == nil {
			o.err = j.checkTasks(g)
		}
		gatherTasks(&o, g)
		return
	}
	m, err := vm.NewWith(prog, h, opts.Strategy)
	tr.end(load)
	if err != nil {
		o.err = err
		return
	}
	m.Col.Parallelism = opts.Parallelism
	run := tr.begin("vm.run", op, root)
	raw, err := m.Run()
	tr.end(run)
	tr.spans[run].hiddenNS = m.Col.Telem.TotalPauseNS()
	if err != nil {
		o.err = err
		return
	}
	o.err = j.checkSingle(code.DecodeInt(prog.Repr, raw), m.Out.String())
	o.c.Instructions, o.c.Calls = m.Stats.Instructions, m.Stats.Calls+m.Stats.ClosCalls
	o.c.ElidedSites = int64(anal.Stats.ElidedSites)
	gatherCommon(&o, prog, m.Col.MetadataSize, m.Col.Stats, m.Heap.Stats, m.Col.Telem.Records)
	return
}

func (j *job) buildTraced(tr *tracer, op, parent int) (*code.Program, *gcanal.Result, error) {
	frontend := func() (*ir.Program, *types.Info, error) {
		s := tr.begin("mlang.parse", op, parent)
		ast, err := parser.Parse(j.src)
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = tr.begin("mlang.check", op, parent)
		info, err := types.Check(ast)
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = tr.begin("lower", op, parent)
		irp, err := lower.Lower(ast, info)
		tr.end(s)
		return irp, info, err
	}
	if j.tasks() {
		// BuildTaskGroup type-checks the entries in a front-end pass of its
		// own before compiling.
		_, info, err := frontend()
		if err != nil {
			return nil, nil, err
		}
		for _, name := range j.entries {
			if sch, ok := info.TopScheme[name]; !ok || sch.String() != "unit -> int" {
				return nil, nil, fmt.Errorf("entry %s is not unit -> int", name)
			}
		}
	}
	irp, _, err := frontend()
	if err != nil {
		return nil, nil, err
	}
	s := tr.begin("gcanal", op, parent)
	anal := gcanal.Analyze(irp)
	if j.tasks() {
		// Tasking keeps a gc_word on every call: any call can suspend.
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
	tr.end(s)
	s = tr.begin("codegen", op, parent)
	prog, err := codegen.CompileWith(irp, gc.StratCompiled.CompatibleRepr(), nil)
	tr.end(s)
	return prog, anal, err
}

// probeResult is one capture-point probe: the root set of the first
// pending stop-the-world collection, resolved and collected repeatedly.
type probeResult struct {
	resolveNS, collectNS int64
	roots, liveWords     int64
}

const probeReps = 15

// probe schedules the program as a task group up to its first pending
// collection and times Collector.ResolveRoots and Collector.Collect on the
// captured roots. Single-task programs run main as the one task. ok is
// false when the program finishes without collecting.
func (j *job) probe(tr *tracer, op int) (p probeResult, ok bool, err error) {
	root := tr.begin("gc.probe", op, -1)
	defer tr.end(root)
	entries := j.entries
	if !j.tasks() {
		entries = []string{"main"}
	}
	s := tr.begin("gc.probe.capture", op, root)
	g, idx, err := pipeline.BuildTaskGroup(j.src, entries, j.options())
	if err != nil {
		tr.end(s)
		return p, false, err
	}
	for _, e := range idx {
		g.Spawn(e)
	}
	if err := g.RunInit(); err != nil {
		tr.end(s)
		return p, false, err
	}
	roots, pending, err := g.RunUntilCollection()
	tr.end(s)
	if err != nil || !pending {
		return p, false, err
	}
	resolve := make([]int64, probeReps)
	collect := make([]int64, probeReps)
	for i := 0; i < probeReps; i++ {
		s = tr.begin("gc.probe.resolve", op, root)
		p.roots = int64(g.Col.ResolveRoots(roots))
		tr.end(s)
		resolve[i] = int64(tr.spans[s].end - tr.spans[s].start)
		s = tr.begin("gc.probe.collect", op, root)
		g.Col.Collect(roots, g.Globals)
		tr.end(s)
		collect[i] = int64(tr.spans[s].end - tr.spans[s].start)
	}
	recs := g.Col.Telem.Records
	p.liveWords = recs[len(recs)-1].LiveWords
	p.resolveNS, p.collectNS = median(resolve), median(collect)
	return p, true, nil
}

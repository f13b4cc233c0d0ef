package experiments

// The benchmark trajectory: a machine-readable snapshot of collection
// performance, regenerated by `tfbench -bench-json` (or `make bench`) and
// committed as BENCH_PR<n>.json so pause behavior is comparable across
// the repository's history. E10 renders the same measurements as a table,
// splitting each pause into its metadata-resolution and trace halves —
// the breakdown that motivates the collection fast path (frame-plan
// cache, pc→site cache, specialized kernels; internal/gc/fastpath.go).

import (
	"fmt"
	"sort"
	"time"

	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/stats"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// BenchSchema identifies the snapshot layout; bump on breaking changes.
const BenchSchema = "tagfree-bench/v1"

// BenchRun is one measured configuration.
type BenchRun struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "collect-pause" or "e2e"
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Discipline is "copying" or "mark/sweep".
	Discipline string `json:"discipline"`
	FastPath   bool   `json:"fast_path"`

	// collect-pause fields: Collections repeated gc.Collect calls on one
	// captured mid-execution root set.
	Collections   int   `json:"collections,omitempty"`
	PauseP50NS    int64 `json:"pause_p50_ns,omitempty"`
	PauseP99NS    int64 `json:"pause_p99_ns,omitempty"`
	PauseMeanNS   int64 `json:"pause_mean_ns,omitempty"`
	ResolveMeanNS int64 `json:"resolve_mean_ns,omitempty"`
	RootsPerGC    int64 `json:"roots_per_gc,omitempty"`
	PlanHits      int64 `json:"plan_hits,omitempty"`
	PlanMisses    int64 `json:"plan_misses,omitempty"`
	SiteCacheHits int64 `json:"site_cache_hits,omitempty"`
	KernelWords   int64 `json:"kernel_words,omitempty"`

	// e2e fields: best-of-repeats whole-program wall time.
	RunNS      int64 `json:"run_ns,omitempty"`
	AllocWords int64 `json:"alloc_words,omitempty"`
	GCPauseNS  int64 `json:"gc_pause_ns,omitempty"`
	GCCount    int64 `json:"gc_count,omitempty"`

	// minor-pause fields. The pause percentiles come from repeated minor
	// then full collections of the same captured root set on a nursery
	// heap with a tenured resident set, so the two distributions differ
	// only in how far past the young/old boundary each trace walks. The
	// generational counters come from a separate end-to-end run of the
	// same workload, where the mutator actually drives the write barrier.
	NurseryWords     int     `json:"nursery_words,omitempty"`
	PromoteAfter     int     `json:"promote_after,omitempty"`
	ResidentWords    int     `json:"resident_words,omitempty"`
	MinorP50NS       int64   `json:"minor_p50_ns,omitempty"`
	MinorP90NS       int64   `json:"minor_p90_ns,omitempty"`
	MinorMeanNS      int64   `json:"minor_mean_ns,omitempty"`
	FullP50NS        int64   `json:"full_p50_ns,omitempty"`
	FullP90NS        int64   `json:"full_p90_ns,omitempty"`
	FullMeanNS       int64   `json:"full_mean_ns,omitempty"`
	MinorCollections int64   `json:"minor_collections,omitempty"`
	MajorCollections int64   `json:"major_collections,omitempty"`
	MinorSurvivorPct float64 `json:"minor_survivor_pct,omitempty"`
	PromotedWords    int64   `json:"promoted_words,omitempty"`
	BarrierHits      int64   `json:"barrier_hits,omitempty"`
	RememberedPeak   int64   `json:"remembered_peak,omitempty"`

	// alloc-tlab fields: whole-run allocation-path counters from an
	// end-to-end tasking run with per-task buffers of TLABWords words
	// (0 = the shared-path baseline). AcqsPerAlloc is the contention
	// figure the buffers exist to shrink: shared-heap acquisitions
	// (direct allocations plus chunk carves) per allocation.
	TLABWords      int     `json:"tlab_words,omitempty"`
	Allocations    int64   `json:"allocations,omitempty"`
	SharedAllocs   int64   `json:"shared_allocs,omitempty"`
	AcqsPerAlloc   float64 `json:"acqs_per_alloc,omitempty"`
	TLABRefills    int64   `json:"tlab_refills,omitempty"`
	TLABWasteWords int64   `json:"tlab_waste_words,omitempty"`

	// conc-mark fields: end-to-end mark/sweep tasking runs with
	// incremental marking off or on (E15). The pause percentiles are over
	// individual mutator stop events — each stop-the-world pause, and
	// each concurrent cycle's initial and final pause separately.
	Concurrent   bool  `json:"concurrent,omitempty"`
	StopMaxNS    int64 `json:"stop_max_ns,omitempty"`
	ConcCycles   int64 `json:"conc_cycles,omitempty"`
	MarkSlices   int64 `json:"mark_slices,omitempty"`
	BarrierGrays int64 `json:"barrier_grays,omitempty"`
	ConcAborts   int64 `json:"conc_aborts,omitempty"`

	// heap-liveness fields: end-to-end copying runs with liveness-guided
	// tracing off or on (E17). PrunedWords counts element fields the spine
	// kernels overwrote with the poison word instead of tracing;
	// CopiedWords is the retention figure the pruning exists to shrink.
	HeapLive    bool  `json:"heap_liveness,omitempty"`
	PruneGCs    int64 `json:"prune_gcs,omitempty"`
	SpineRoots  int64 `json:"spine_roots,omitempty"`
	PrunedWords int64 `json:"pruned_words,omitempty"`
	CopiedWords int64 `json:"copied_words,omitempty"`

	// serve-overload fields: the E14 overload matrix on a mark/sweep
	// heap, concurrent marking off or on. Latency percentiles are
	// virtual-time steps (see EXPERIMENTS.md, E14 methodology).
	LatencyP50     int64   `json:"latency_p50_steps,omitempty"`
	LatencyP99     int64   `json:"latency_p99_steps,omitempty"`
	LatencyP999    int64   `json:"latency_p999_steps,omitempty"`
	ThroughputRPMS float64 `json:"throughput_rpmsteps,omitempty"`
}

// BenchSnapshot is the whole emitted file.
type BenchSnapshot struct {
	Schema  string     `json:"schema"`
	Repeats int        `json:"repeats"`
	Runs    []BenchRun `json:"runs"`
}

// benchGroup compiles a task workload and schedules it to its first
// pending collection, returning the group and the captured root set —
// repeated Collect calls on those roots are the pause benchmark.
// nurseryWords > 0 puts a generational nursery in front of the heap.
func benchGroup(w workloads.TaskWorkload, ms bool, nurseryWords, promote int) (*tasking.Group, []gc.TaskRoots) {
	prog, _, err := pipeline.Build(w.Source, pipeline.Options{
		Strategy:             gc.StratCompiled,
		DisableGCWordElision: true,
	})
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	entries := make([]int, len(w.Entries))
	for i, name := range w.Entries {
		entries[i] = prog.FuncByName(name)
	}
	var h *heap.Heap
	if ms {
		h = heap.NewMarkSweep(prog.Repr, 2*w.HeapWords)
	} else {
		h = heap.New(prog.Repr, w.HeapWords)
	}
	if nurseryWords > 0 {
		h.EnableNursery(nurseryWords, promote)
	}
	g, err := tasking.NewGroupWith(prog, h, gc.StratCompiled, entries)
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	if err := g.RunInit(); err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	roots, pending, err := g.RunUntilCollection()
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	if !pending {
		panic(fmt.Sprintf("bench %s: finished without collecting", w.Name))
	}
	return g, roots
}

// percentile is stats.Percentile — the one shared quantile rule, so the
// bench and serve latency rows can never disagree on methodology.
func percentile(sorted []int64, p float64) int64 {
	return stats.Percentile(sorted, p)
}

// collectPauseRun measures `collections` repeated collections of one
// captured root set under the given knobs, plus the mean cost of the
// pure resolution half (Collector.ResolveRoots).
func collectPauseRun(w workloads.TaskWorkload, ms bool, fast bool, collections int) BenchRun {
	g, roots := benchGroup(w, ms, 0, 0)
	g.Col.DisableFastPath = !fast
	for i := 0; i < collections; i++ {
		g.Col.Collect(roots, g.Globals)
	}
	recs := g.Col.Telem.Records
	recs = recs[len(recs)-collections:]
	pauses := make([]int64, len(recs))
	var sum int64
	for i, r := range recs {
		pauses[i] = r.PauseNS
		sum += r.PauseNS
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })

	const resolveReps = 400
	var roots64 int64
	start := time.Now()
	for i := 0; i < resolveReps; i++ {
		roots64 = int64(g.Col.ResolveRoots(roots))
	}
	resolveNS := time.Since(start).Nanoseconds() / resolveReps

	st := g.Col.Stats
	discipline := "copying"
	if ms {
		discipline = "mark/sweep"
	}
	mode := "oracle"
	if fast {
		mode = "fast"
	}
	return BenchRun{
		Name:          fmt.Sprintf("collect/%s/%s/%s", w.Name, discipline, mode),
		Kind:          "collect-pause",
		Workload:      w.Name,
		Strategy:      "compiled",
		Discipline:    discipline,
		FastPath:      fast,
		Collections:   collections,
		PauseP50NS:    percentile(pauses, 0.50),
		PauseP99NS:    percentile(pauses, 0.99),
		PauseMeanNS:   sum / int64(len(pauses)),
		ResolveMeanNS: resolveNS,
		RootsPerGC:    roots64,
		PlanHits:      st.PlanHits,
		PlanMisses:    st.PlanMisses,
		SiteCacheHits: st.SiteCacheHits,
		KernelWords:   st.KernelWords,
	}
}

// pauseStats sorts a pause sample and returns (p50, p90, mean).
func pauseStats(pauses []int64) (int64, int64, int64) {
	if len(pauses) == 0 {
		return 0, 0, 0
	}
	var sum int64
	for _, p := range pauses {
		sum += p
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return percentile(pauses, 0.50), percentile(pauses, 0.90), sum / int64(len(pauses))
}

// benchNurseryWords sizes the bench nursery: small enough that minors are
// bounded by a fraction of the heap, large enough to hold a scheduling
// quantum's allocation.
const benchNurseryWords = 256

// benchPromote is the survival count before promotion in the bench runs.
const benchPromote = 2

// withResident prepends a long-lived global list of `cells` cons cells to
// a workload. The list tenures during initialization, giving the old
// region the resident set a long-running program accumulates: the graph
// every full collection must re-trace and every minor collection skips.
// Without it the churn workloads' old regions are nearly empty and minor
// and full pauses both degenerate to the shared stack re-trace.
func withResident(w workloads.TaskWorkload, cells int) workloads.TaskWorkload {
	w.Source = fmt.Sprintf(`
let rec bench_resident_build n = if n = 0 then [] else n :: bench_resident_build (n - 1)
let bench_resident = bench_resident_build %d
`, cells) + w.Source
	return w
}

// minorPauseRun measures the generational pause split. The percentiles
// come from `collections` repeated minor collections, then `collections`
// repeated full collections, of one captured mid-execution root set over
// a tenured resident list of HeapWords/2 words. Both kinds trace every
// frame of every task stack (the paper's frame routines are the shared
// cost); the minor trace stops at the young/old boundary while the full
// trace walks the whole live old region. The generational counters come
// from a separate end-to-end run, where the mutator drives the barrier.
func minorPauseRun(w workloads.TaskWorkload, ms bool, collections int) BenchRun {
	residentCells := w.HeapWords / 4 // 2 words per cons cell
	g, roots := benchGroup(withResident(w, residentCells), ms, benchNurseryWords, benchPromote)
	for i := 0; i < collections; i++ {
		g.Col.Collect(roots, g.Globals)
	}
	if g.Col.Gen.MinorCollections < int64(collections) {
		panic(fmt.Sprintf("bench %s: remembered set poisoned, only %d of %d minors ran",
			w.Name, g.Col.Gen.MinorCollections, collections))
	}
	for i := 0; i < collections; i++ {
		g.Col.CollectFull(roots, g.Globals)
	}
	var minors, fulls []int64
	for _, r := range g.Col.Telem.Records {
		switch r.Kind {
		case "minor":
			minors = append(minors, r.PauseNS)
		case "major":
			fulls = append(fulls, r.PauseNS)
		}
	}
	minorP50, minorP90, minorMean := pauseStats(minors)
	fullP50, fullP90, fullMean := pauseStats(fulls)

	// End-to-end run for the mutator-driven counters: minor/major mix,
	// survival rate, promotion volume, write-barrier traffic.
	res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
		Strategy:     gc.StratCompiled,
		HeapWords:    w.HeapWords,
		MarkSweep:    ms,
		NurseryWords: benchNurseryWords,
		PromoteAfter: benchPromote,
		MaxSteps:     2_000_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", w.Name, err))
	}
	var nMinor, nMajor, promoted, barriers, remPeak int64
	var survSum float64
	for _, r := range res.Telemetry.Records {
		switch r.Kind {
		case "minor":
			nMinor++
			survSum += r.SurvivorPct
		case "major":
			nMajor++
		}
		promoted += r.PromotedWords
		barriers += r.BarrierHits
		if int64(r.Remembered) > remPeak {
			remPeak = int64(r.Remembered)
		}
	}
	survPct := 0.0
	if nMinor > 0 {
		survPct = survSum / float64(nMinor)
	}

	discipline := "copying"
	if ms {
		discipline = "mark/sweep"
	}
	return BenchRun{
		Name:             fmt.Sprintf("minor/%s/%s", w.Name, discipline),
		Kind:             "minor-pause",
		Workload:         w.Name,
		Strategy:         "compiled",
		Discipline:       discipline,
		FastPath:         true,
		Collections:      collections,
		NurseryWords:     benchNurseryWords,
		PromoteAfter:     benchPromote,
		ResidentWords:    2 * residentCells,
		MinorP50NS:       minorP50,
		MinorP90NS:       minorP90,
		MinorMeanNS:      minorMean,
		FullP50NS:        fullP50,
		FullP90NS:        fullP90,
		FullMeanNS:       fullMean,
		MinorCollections: nMinor,
		MajorCollections: nMajor,
		MinorSurvivorPct: survPct,
		PromotedWords:    promoted,
		BarrierHits:      barriers,
		RememberedPeak:   remPeak,
	}
}

// e2eRun measures one whole-program workload best-of-repeats.
func e2eRun(w workloads.Workload, fast bool, repeats int) BenchRun {
	var best *pipeline.Result
	bestNS := int64(1 << 62)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res := mustRun(w, pipeline.Options{Strategy: gc.StratCompiled, DisableGCFastPath: !fast})
		if ns := time.Since(start).Nanoseconds(); ns < bestNS {
			bestNS = ns
			best = res
		}
	}
	mode := "oracle"
	if fast {
		mode = "fast"
	}
	return BenchRun{
		Name:       fmt.Sprintf("e2e/%s/%s", w.Name, mode),
		Kind:       "e2e",
		Workload:   w.Name,
		Strategy:   "compiled",
		Discipline: "copying",
		FastPath:   fast,
		RunNS:      bestNS,
		AllocWords: best.HeapStats.WordsAllocated,
		GCPauseNS:  best.GCStats.PauseNS,
		GCCount:    best.GCStats.Collections,
	}
}

// benchTLABWords is the buffer chunk for the alloc-tlab runs (the -tlab
// default used across the docs and E12).
const benchTLABWords = 64

// allocContentionRun measures the allocation path end-to-end with and
// without per-task buffers: best-of-repeats wall time plus the whole-run
// shared-acquisition counters (deterministic, so repeats only steady the
// timing).
func allocContentionRun(w workloads.TaskWorkload, tlab, repeats int) BenchRun {
	var best *pipeline.TaskResult
	bestNS := int64(1 << 62)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, err := pipeline.RunTasks(w.Source, w.Entries, pipeline.Options{
			Strategy:  gc.StratCompiled,
			HeapWords: w.HeapWords,
			TLABWords: tlab,
		})
		if err != nil {
			panic(fmt.Sprintf("bench %s: %v", w.Name, err))
		}
		if ns := time.Since(start).Nanoseconds(); ns < bestNS {
			bestNS = ns
			best = res
		}
	}
	hs := best.Heap
	mode := "shared"
	if tlab > 0 {
		mode = fmt.Sprintf("tlab%d", tlab)
	}
	return BenchRun{
		Name:           fmt.Sprintf("alloc/%s/%s", w.Name, mode),
		Kind:           "alloc-tlab",
		Workload:       w.Name,
		Strategy:       "compiled",
		Discipline:     "copying",
		TLABWords:      tlab,
		RunNS:          bestNS,
		Allocations:    hs.Allocations,
		SharedAllocs:   hs.SharedAllocs,
		AcqsPerAlloc:   float64(hs.SharedAllocs) / float64(hs.Allocations),
		TLABRefills:    hs.TLABRefills,
		TLABWasteWords: hs.TLABWasteWords,
		GCCount:        int64(best.Stats.Collections),
	}
}

// benchCollections is the repeated-Collect count per pause run: enough
// for stable p50/p99 without making `make bench` crawl.
const benchCollections = 150

// Bench produces the full snapshot: every task workload × discipline ×
// {oracle, fast} pause runs, plus end-to-end
// runs over the allocation-heavy corpus with the fast path on and off,
// plus allocation-contention runs with buffers off and on.
func Bench(repeats int) *BenchSnapshot {
	snap := &BenchSnapshot{Schema: BenchSchema, Repeats: repeats}
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			for _, fast := range []bool{false, true} {
				snap.Runs = append(snap.Runs, collectPauseRun(w, ms, fast, benchCollections))
			}
		}
	}
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			snap.Runs = append(snap.Runs, minorPauseRun(w, ms, benchCollections))
		}
	}
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, fast := range []bool{false, true} {
			snap.Runs = append(snap.Runs, e2eRun(w, fast, repeats))
		}
	}
	for _, w := range workloads.Tasking {
		for _, tlab := range []int{0, benchTLABWords} {
			snap.Runs = append(snap.Runs, allocContentionRun(w, tlab, repeats))
		}
	}
	for _, name := range e15Workloads {
		w, ok := workloads.TaskByName(name)
		if !ok {
			panic(fmt.Sprintf("bench: no task workload %q", name))
		}
		for _, conc := range []bool{false, true} {
			snap.Runs = append(snap.Runs, concMarkBenchRun(w, conc, repeats))
		}
	}
	for _, conc := range []bool{false, true} {
		snap.Runs = append(snap.Runs, serveOverloadRuns(conc)...)
	}
	for _, name := range e17Workloads {
		w, ok := workloads.TaskByName(name)
		if !ok {
			panic(fmt.Sprintf("bench: no task workload %q", name))
		}
		for _, live := range []bool{false, true} {
			snap.Runs = append(snap.Runs, livenessBenchRun(w, live, repeats))
		}
	}
	return snap
}

// ---------------------------------------------------------------------------
// E10 — the pause breakdown.
// ---------------------------------------------------------------------------

// E10FastPath splits the compiled strategy's pause into its
// metadata-resolution and trace halves, cached (fast path) against
// uncached (oracle). The uncached
// resolution share is the cost the paper's per-frame protocol pays every
// collection; the cached column is what remains once frame plans, site
// lookups and kernels are memoized across frames and collections.
func E10FastPath() *Table {
	t := &Table{
		ID:    "E10",
		Title: "collection fast path: pause breakdown, cached vs uncached",
		Claim: "compiled-mode pauses are dominated by re-deriving per-frame metadata that is invariant across frames and collections; memoizing it shrinks the pause without changing a single heap word",
		Header: []string{"workload", "pause/GC uncached", "pause/GC cached", "speedup",
			"resolve uncached", "resolve cached", "plan hit%", "kernel words/GC"},
	}
	for _, w := range workloads.Tasking {
		oracle := collectPauseRun(w, false, false, benchCollections)
		fast := collectPauseRun(w, false, true, benchCollections)
		hitPct := "-"
		if fast.PlanHits+fast.PlanMisses > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*float64(fast.PlanHits)/float64(fast.PlanHits+fast.PlanMisses))
		}
		t.Rows = append(t.Rows, []string{
			w.Name,
			fmt.Sprint(oracle.PauseP50NS),
			fmt.Sprint(fast.PauseP50NS),
			ratio(oracle.PauseP50NS, fast.PauseP50NS),
			fmt.Sprint(oracle.ResolveMeanNS),
			fmt.Sprint(fast.ResolveMeanNS),
			hitPct,
			fmt.Sprint(fast.KernelWords / int64(benchCollections)),
		})
	}
	t.Notes = append(t.Notes,
		"pause/GC is the p50 of 150 repeated collections of one captured mid-execution root set (copying discipline)",
		"resolve is the mean of the pure metadata half (Collector.ResolveRoots): frame chains, site lookups, type-argument resolution, plan builds — no tracing",
		"taskdeep is the motivating shape: a deep tower of one polymorphic frame, where every frame hits the same memoized plan",
		"the fast path is compiled-strategy only: interp keeps its decode-per-collection cost (E4's trade-off) and Appel its chain re-walks (E6) by design",
	)
	return t
}

// ---------------------------------------------------------------------------
// E11 — the generational pause split.
// ---------------------------------------------------------------------------

// E11Generational compares minor against full collection pauses of the
// same captured root set under both disciplines. Both traces run the same
// frame routines over the same stacks; the minor one returns old objects
// untouched at the young/old boundary and takes interior old→young edges
// from the typed remembered set instead of walking the tenured graph.
func E11Generational() *Table {
	t := &Table{
		ID:    "E11",
		Title: "generational nursery: minor vs full collection pause",
		Claim: "the paper's frame routines price a whole-stack re-trace low enough that a nursery needs no card tables or stack barriers — minors re-run the routines and stop at the old-region boundary",
		Header: []string{"workload", "discipline", "minor p50", "full p50", "minor/full",
			"minors", "majors", "surv%/minor", "promoted words", "barrier hits", "remembered peak"},
	}
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			r := minorPauseRun(w, ms, benchCollections)
			t.Rows = append(t.Rows, []string{
				w.Name,
				r.Discipline,
				fmt.Sprint(r.MinorP50NS),
				fmt.Sprint(r.FullP50NS),
				ratio(r.MinorP50NS, r.FullP50NS),
				fmt.Sprint(r.MinorCollections),
				fmt.Sprint(r.MajorCollections),
				fmt.Sprintf("%.1f", r.MinorSurvivorPct),
				fmt.Sprint(r.PromotedWords),
				fmt.Sprint(r.BarrierHits),
				fmt.Sprint(r.RememberedPeak),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pauses: %d repeated minors then %d repeated fulls of one captured mid-execution root set, nursery %d words/half, promotion after %d survivals, over a tenured resident list of HeapWords/2 words — the long-lived graph a real program accumulates, which fulls re-trace and minors skip",
			benchCollections, benchCollections, benchNurseryWords, benchPromote),
		"both kinds re-trace every frame of every task stack — the pause delta is exactly the tenured graph a minor skips",
		"minors/majors/surv%/promoted/barrier columns come from a separate end-to-end run where the mutator drives the write barrier; taskmutate repoints long-lived ref cells at fresh nursery lists, so its barrier traffic is the remembered set earning its keep",
		"mark/sweep minors still evacuate the nursery by copying; only the old region is swept in place",
	)
	return t
}

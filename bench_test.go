package tagfree_test

// Go benchmarks mirroring the experiment tables (EXPERIMENTS.md). Each
// BenchmarkE* target regenerates the measurements behind one experiment:
//
//	E1 heap space        — allocation volume per representation
//	E2 mutator tags      — end-to-end run time, tagged vs tag-free
//	E3 liveness          — copied words with and without live maps
//	E4 space/time        — pause time per strategy (metadata reported)
//	E5 gc_word elision   — compile-time analysis (reported as metrics)
//	E6 polymorphic walk  — collection work vs polymorphic stack depth
//	E7 tasking           — multi-task suspension protocol
//	E8 runtime reps      — phantom-closure type representation cost
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"tagfree/internal/gc"
	"tagfree/internal/heap"
	"tagfree/internal/pipeline"
	"tagfree/internal/tasking"
	"tagfree/internal/workloads"
)

// compileOnce caches compiled programs per workload and strategy.
func runWorkload(b *testing.B, w workloads.Workload, strat gc.Strategy, opts pipeline.Options) *pipeline.Result {
	b.Helper()
	opts.Strategy = strat
	if opts.HeapWords == 0 {
		opts.HeapWords = w.HeapWords
	}
	opts.MaxSteps = 1 << 40
	res, err := pipeline.Run(w.Source, opts)
	if err != nil {
		b.Fatalf("%s [%v]: %v", w.Name, strat, err)
	}
	if res.Value != w.Expect {
		b.Fatalf("%s [%v]: result %d, want %d", w.Name, strat, res.Value, w.Expect)
	}
	return res
}

// BenchmarkE1HeapSpace reports allocation volume per representation; the
// interesting numbers are the reported metrics, the time is incidental.
func BenchmarkE1HeapSpace(b *testing.B) {
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
			b.Run(fmt.Sprintf("%s/%v", w.Name, strat), func(b *testing.B) {
				var words, peak int64
				for i := 0; i < b.N; i++ {
					res := runWorkload(b, w, strat, pipeline.Options{})
					words = res.HeapStats.WordsAllocated
					peak = res.HeapStats.PeakLive
				}
				b.ReportMetric(float64(words), "alloc-words")
				b.ReportMetric(float64(peak), "peak-live-words")
			})
		}
	}
}

// BenchmarkE2MutatorTags times the arithmetic-only workloads end to end
// under both representations.
func BenchmarkE2MutatorTags(b *testing.B) {
	for _, w := range workloads.All {
		if w.AllocHeavy {
			continue
		}
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratTagged} {
			b.Run(fmt.Sprintf("%s/%v", w.Name, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runWorkload(b, w, strat, pipeline.Options{})
				}
			})
		}
	}
}

// BenchmarkE3Liveness reports copied words with precise live maps against
// widened all-slot maps.
func BenchmarkE3Liveness(b *testing.B) {
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"live-maps", false}, {"all-slots", true}} {
			b.Run(fmt.Sprintf("%s/%s", w.Name, mode.name), func(b *testing.B) {
				var copied int64
				for i := 0; i < b.N; i++ {
					res := runWorkload(b, w, gc.StratCompiled,
						pipeline.Options{DisableLiveness: mode.disable})
					copied = res.HeapStats.WordsCopied
				}
				b.ReportMetric(float64(copied), "copied-words")
			})
		}
	}
}

// BenchmarkE4SpaceTime times whole runs per strategy and reports the GC
// pause share and metadata footprint — the §2.4 trade-off.
func BenchmarkE4SpaceTime(b *testing.B) {
	for _, w := range workloads.All {
		if !w.AllocHeavy {
			continue
		}
		for _, strat := range pipeline.Strategies {
			b.Run(fmt.Sprintf("%s/%v", w.Name, strat), func(b *testing.B) {
				var pause, colls, meta int64
				for i := 0; i < b.N; i++ {
					res := runWorkload(b, w, strat, pipeline.Options{})
					pause = res.GCStats.PauseNS
					colls = res.GCStats.Collections
					meta = res.MetadataWords
				}
				if colls > 0 {
					b.ReportMetric(float64(pause)/float64(colls), "pause-ns/gc")
				}
				b.ReportMetric(float64(meta), "metadata-words")
			})
		}
	}
}

// BenchmarkE5GCAnal times compilation including the §5.1 analysis and
// reports elision counts.
func BenchmarkE5GCAnal(b *testing.B) {
	for _, w := range workloads.All {
		b.Run(w.Name, func(b *testing.B) {
			var elided, direct int
			for i := 0; i < b.N; i++ {
				_, anal, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled})
				if err != nil {
					b.Fatal(err)
				}
				elided = anal.Stats.ElidedSites
				direct = anal.Stats.DirectCallSites
			}
			b.ReportMetric(float64(elided), "elided-sites")
			b.ReportMetric(float64(direct), "direct-sites")
		})
	}
}

// BenchmarkE6PolyWalk measures collection work against polymorphic stack
// depth for the incremental walk vs Appel's chain re-walk.
func BenchmarkE6PolyWalk(b *testing.B) {
	for _, depth := range []int{100, 200, 400} {
		src := fmt.Sprintf(`
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let main () = pdepth (1, true) 0 %d
`, depth)
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratAppel} {
			b.Run(fmt.Sprintf("depth%d/%v", depth, strat), func(b *testing.B) {
				var work int64
				for i := 0; i < b.N; i++ {
					res, err := pipeline.Run(src, pipeline.Options{
						Strategy:  strat,
						HeapWords: depth * 3,
						MaxSteps:  1 << 40,
					})
					if err != nil {
						b.Fatal(err)
					}
					if strat == gc.StratAppel {
						work = res.GCStats.ChainSteps
					} else {
						work = res.GCStats.FramesTraced
					}
				}
				b.ReportMetric(float64(work), "walk-steps")
			})
		}
	}
}

// BenchmarkE7Tasking measures the multi-task suspension protocol.
func BenchmarkE7Tasking(b *testing.B) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let t0 () = work 40 0
let t1 () = work 40 0
let t2 () = work 40 0
let t3 () = work 40 0
`
	for _, n := range []int{1, 2, 4} {
		entries := make([]string, n)
		for i := range entries {
			entries[i] = fmt.Sprintf("t%d", i)
		}
		b.Run(fmt.Sprintf("tasks%d", n), func(b *testing.B) {
			var maxLat int64
			for i := 0; i < b.N; i++ {
				res, err := pipeline.RunTasks(src, entries, pipeline.Options{
					Strategy:  gc.StratCompiled,
					HeapWords: 2048,
				})
				if err != nil {
					b.Fatal(err)
				}
				maxLat = 0
				for _, l := range res.Stats.SuspendLatency {
					if l > maxLat {
						maxLat = l
					}
				}
			}
			b.ReportMetric(float64(maxLat), "max-suspend-latency")
		})
	}
}

// BenchmarkE8RuntimeReps times the phantom-closure workload (the one
// program needing runtime type representations) against a rep-free closure
// workload of similar allocation behavior.
func BenchmarkE8RuntimeReps(b *testing.B) {
	names := []string{"thunks", "closures"}
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("missing workload %s", name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, w, gc.StratCompiled, pipeline.Options{})
			}
		})
	}
}

// BenchmarkCompile measures front-to-back compilation speed.
func BenchmarkCompile(b *testing.B) {
	for _, w := range workloads.All {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pipeline.Build(w.Source, pipeline.Options{Strategy: gc.StratCompiled}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Collection benchmarks: Collect on a realistic mid-execution root set.
// RunUntilCollection schedules the task group until a stop-the-world
// collection is due and hands back the roots without collecting; Collect
// may then run repeatedly on them (each collection leaves the stacks
// consistent for the next).
// ---------------------------------------------------------------------------

// benchCollectGroup compiles a task workload and schedules it up to its
// first collection, returning the group and the captured root set.
func benchCollectGroup(b *testing.B, w workloads.TaskWorkload, strat gc.Strategy, ms bool) (*tasking.Group, []gc.TaskRoots) {
	b.Helper()
	prog, _, err := pipeline.Build(w.Source, pipeline.Options{
		Strategy:             strat,
		DisableGCWordElision: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]int, len(w.Entries))
	for i, name := range w.Entries {
		entries[i] = prog.FuncByName(name)
	}
	var g *tasking.Group
	if ms {
		g, err = tasking.NewGroupWith(prog, heap.NewMarkSweep(prog.Repr, 2*w.HeapWords), strat, entries)
	} else {
		g, err = tasking.NewGroup(prog, w.HeapWords, strat, entries)
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := g.RunInit(); err != nil {
		b.Fatal(err)
	}
	roots, pending, err := g.RunUntilCollection()
	if err != nil {
		b.Fatal(err)
	}
	if !pending {
		b.Fatalf("%s finished without collecting — not a GC benchmark", w.Name)
	}
	return g, roots
}

// BenchmarkCollect measures the collection pause of the compiled strategy
// in both heap disciplines, and of Appel mode, whose root resolution is the
// most expensive (the O(n²) chain re-walks).
func BenchmarkCollect(b *testing.B) {
	configs := []struct {
		strat gc.Strategy
		ms    bool
	}{
		{gc.StratCompiled, false},
		{gc.StratCompiled, true},
		{gc.StratAppel, false},
	}
	for _, cfg := range configs {
		kind := "copying"
		if cfg.ms {
			kind = "marksweep"
		}
		for _, w := range workloads.Tasking {
			b.Run(fmt.Sprintf("%v/%s/%s", cfg.strat, kind, w.Name), func(b *testing.B) {
				g, roots := benchCollectGroup(b, w, cfg.strat, cfg.ms)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Col.Collect(roots, g.Globals)
				}
			})
		}
	}
}

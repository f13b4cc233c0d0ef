// Command tfgc compiles and runs MinML programs under a chosen garbage
// collection strategy.
//
//	tfgc run [-gc compiled|interp|appel|tagged] [-heap N] [-stats] [-gc-stats] prog.ml
//	tfgc check prog.ml           # type check; print top-level schemes
//	tfgc ir prog.ml              # dump the lowered IR
//	tfgc disasm prog.ml          # disassemble the generated bytecode
//	tfgc tasks -entry a,b prog.ml  # run entries as concurrent tasks
//	tfgc fmt prog.ml             # reprint the program from its AST
//	tfgc repl                    # interactive session
//
// Collector knobs shared by run and tasks: -marksweep switches the heap
// discipline from semispace copying to mark/sweep (tag-free strategies
// only), and -gc-stats prints the per-collection telemetry table after the program's output.
// -gc-nofastpath reverts the compiled strategy to uncached root
// resolution (the E10 oracle) for A/B pause comparisons. -gc-nursery N
// enables a generational nursery of N words per young half (tag-free
// strategies only) and -gc-promote sets the survival count at which
// survivors tenure into the old region.
//
// Robustness knobs: -verify-heap re-checks heap invariants after every
// collection, -gc-torture collects before every allocation, -fail-alloc N
// and -fail-every K inject allocation failures, and -heap-grow F with
// -heap-max W enable the recovery ladder's growth rung. A task that
// exhausts the ladder faults alone; its siblings run to completion.
//
// Allocation knobs (tasks only): -tlab N gives every task a private bump
// buffer refilled from the shared heap (or the nursery) in N-word chunks,
// making the allocation fast path a bounds check and a bump with no
// shared-heap acquisition; -stats then reports per-task refill and waste
// accounting, and -gc-stats grows refill/fast/shared/waste telemetry
// columns. -fail-refills retargets the injection knobs at refill carves.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/parser"
	"tagfree/internal/mlang/printer"
	"tagfree/internal/mlang/types"
	"tagfree/internal/pipeline"
)

// usageError distinguishes bad invocations (exit 2) from runtime failures
// (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tfgc:", err)
		if _, ok := err.(*usageError); ok {
			fmt.Fprintln(os.Stderr, "usage: tfgc {run|check|ir|disasm|fmt|tasks|repl} [flags] [file.ml]")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// cli runs one tfgc invocation, writing program output to stdout. It is
// the whole command minus process concerns (exit codes, stderr), so tests
// can drive it directly.
func cli(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return &usageError{"missing command"}
	}
	cmd := args[0]
	if cmd == "repl" {
		fs := flag.NewFlagSet("repl", flag.ContinueOnError)
		gcName := fs.String("gc", "compiled", "collector")
		heapW := fs.Int("heap", 1<<16, "semispace size in words")
		if err := fs.Parse(args[1:]); err != nil {
			return &usageError{err.Error()}
		}
		strat, err := parseStrategy(*gcName)
		if err != nil {
			return err
		}
		repl(os.Stdin, stdout, pipeline.Options{Strategy: strat, HeapWords: *heapW})
		return nil
	}
	switch cmd {
	case "run", "check", "ir", "disasm", "fmt", "tasks":
	default:
		return &usageError{fmt.Sprintf("unknown command %q", cmd)}
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	gcName := fs.String("gc", "compiled", "collector: compiled, interp, appel, tagged")
	heap := fs.Int("heap", 1<<16, "semispace size in words")
	stats := fs.Bool("stats", false, "print execution and collection statistics")
	entries := fs.String("entry", "", "comma-separated task entry functions (tasks command)")
	noElide := fs.Bool("no-elide", false, "keep gc_words on every call site")
	markSweep := fs.Bool("marksweep", false, "mark/sweep heap discipline instead of semispace copying")
	gcStats := fs.Bool("gc-stats", false, "print per-collection GC telemetry after the run")
	verifyHeap := fs.Bool("verify-heap", false, "verify heap invariants after every collection")
	torture := fs.Bool("gc-torture", false, "collect before every allocation")
	noFastPath := fs.Bool("gc-nofastpath", false, "disable the compiled strategy's collection fast path (plan/site caches, trace kernels)")
	failNth := fs.Int64("fail-alloc", 0, "inject one allocation failure at the Nth allocation")
	failEvery := fs.Int64("fail-every", 0, "inject an allocation failure every Kth allocation")
	heapGrow := fs.Float64("heap-grow", 0, "heap growth factor when collection cannot satisfy an allocation (>1 enables)")
	heapMax := fs.Int("heap-max", 0, "hard ceiling for heap growth in semispace words (0 = unbounded)")
	nursery := fs.Int("gc-nursery", 0, "generational nursery size in words per young half (0 = off; tag-free strategies only)")
	promote := fs.Int("gc-promote", 0, "nursery survival count before promotion to the old region (0 = default of 2)")
	tlab := fs.Int("tlab", 0, "per-task allocation buffer chunk in words (0 = off; tasks command only)")
	failRefills := fs.Bool("fail-refills", false, "restrict -fail-alloc/-fail-every to TLAB refill carves")
	gcConc := fs.Bool("gc-concurrent", false, "mostly-concurrent marking: incremental mark slices at safe points (-marksweep, no nursery)")
	concPct := fs.Int("gc-conc-trigger", 0, "heap-occupancy percent that starts a concurrent cycle (0 = 75)")
	concBudget := fs.Int("gc-conc-budget", 0, "words marked per concurrent slice (0 = default)")
	concSlices := fs.Int("gc-conc-maxslices", 0, "slice watchdog before a cycle aborts to stop-the-world (0 = derived)")
	shards := fs.Int("shards", 0, "partition tasks and nursery into N heap shards with independent minor collections (tasks command, needs -gc-nursery)")
	heapLive := fs.Bool("gc-heap-liveness", false, "liveness-guided tracing: prune provably dead element fields of recursive structures (compiled strategy)")
	poison := fs.Bool("poison-pruned", false, "fault any load of a pruned field (debug mode for -gc-heap-liveness verdicts)")
	if err := fs.Parse(args[1:]); err != nil {
		return &usageError{err.Error()}
	}
	if fs.NArg() != 1 {
		return &usageError{"exactly one source file expected"}
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	src := string(srcBytes)

	strat, err := parseStrategy(*gcName)
	if err != nil {
		return err
	}
	opts := pipeline.Options{
		Strategy:             strat,
		HeapWords:            *heap,
		DisableGCWordElision: *noElide,
		MarkSweep:            *markSweep,
		VerifyHeap:           *verifyHeap,
		Torture:              *torture,
		DisableGCFastPath:    *noFastPath,
		FailAllocNth:         *failNth,
		FailAllocEvery:       *failEvery,
		GrowFactor:           *heapGrow,
		MaxHeapWords:         *heapMax,
		NurseryWords:         *nursery,
		PromoteAfter:         *promote,
		TLABWords:            *tlab,
		FailRefillsOnly:      *failRefills,
		GCConcurrent:         *gcConc,
		ConcTriggerPct:       *concPct,
		ConcMarkBudget:       *concBudget,
		ConcMaxSlices:        *concSlices,
		Shards:               *shards,
		GCHeapLiveness:       *heapLive,
		PoisonPruned:         *poison,
	}

	switch cmd {
	case "run":
		res, err := pipeline.Run(src, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Output)
		fmt.Fprintf(stdout, "=> %d\n", res.Value)
		if *stats {
			printStats(stdout, res)
		}
		if *gcStats {
			fmt.Fprint(stdout, pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{}))
		}
	case "check":
		if err := checkCmd(stdout, src); err != nil {
			return err
		}
		ws, err := pipeline.Warnings(src)
		if err == nil {
			for _, w := range ws {
				fmt.Fprintln(stdout, w)
			}
		}
	case "ir":
		irp, _, err := pipeline.Frontend(src)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, irp.String())
	case "fmt":
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, printer.Program(prog))
	case "disasm":
		prog, _, err := pipeline.Build(src, opts)
		if err != nil {
			return err
		}
		for i := range prog.Funcs {
			fmt.Fprintln(stdout, prog.DisasmFunc(i))
		}
	case "tasks":
		if *entries == "" {
			return &usageError{"tasks: -entry a,b,... required"}
		}
		names := strings.Split(*entries, ",")
		res, err := pipeline.RunTasks(src, names, opts)
		if err != nil {
			return err
		}
		faulted := 0
		for i, name := range names {
			if out := res.Outputs[i]; out != "" {
				fmt.Fprintf(stdout, "[%s] %s\n", name, out)
			}
			if f := res.Faults[i]; f != nil {
				faulted++
				fmt.Fprintf(stdout, "[%s] faulted: %v\n", name, f)
				continue
			}
			fmt.Fprintf(stdout, "[%s] => %d\n", name, res.Values[i])
		}
		if *stats {
			fmt.Fprintf(stdout, "collections=%d rgc-checks=%d instructions=%d\n",
				res.Stats.Collections, res.Stats.RgcChecks, res.Stats.Instructions)
			if *tlab > 0 {
				for i, name := range names {
					ts := res.TLABs[i]
					fmt.Fprintf(stdout, "[%s] tlab: refills=%d refill-words=%d fast=%d slow=%d waste=%d returned=%d\n",
						name, ts.Refills, ts.RefillWords, ts.FastAllocs, ts.SlowAllocs, ts.WasteWords, ts.ReturnedWords)
				}
			}
		}
		if *gcStats {
			fmt.Fprint(stdout, pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{Tasks: true}))
		}
		if faulted == len(names) {
			return fmt.Errorf("tasks: all %d tasks faulted", faulted)
		}
	}
	return nil
}

func parseStrategy(name string) (gc.Strategy, error) {
	switch name {
	case "compiled":
		return gc.StratCompiled, nil
	case "interp":
		return gc.StratInterp, nil
	case "appel":
		return gc.StratAppel, nil
	case "tagged":
		return gc.StratTagged, nil
	}
	return 0, fmt.Errorf("unknown collector %q (want compiled, interp, appel or tagged)", name)
}

func checkCmd(stdout io.Writer, src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	info, err := types.Check(prog)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(info.TopScheme))
	for name := range info.TopScheme {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "val %s : %s\n", name, info.TopScheme[name])
	}
	return nil
}

func printStats(stdout io.Writer, res *pipeline.Result) {
	fmt.Fprintf(stdout, "instructions     %d\n", res.VMStats.Instructions)
	fmt.Fprintf(stdout, "calls            %d direct, %d closure\n", res.VMStats.Calls, res.VMStats.ClosCalls)
	fmt.Fprintf(stdout, "allocations      %d (%d words)\n", res.VMStats.Allocations, res.HeapStats.WordsAllocated)
	fmt.Fprintf(stdout, "collections      %d (%d words copied, %d ns total pause)\n",
		res.HeapStats.Collections, res.HeapStats.WordsCopied, res.GCStats.PauseNS)
	fmt.Fprintf(stdout, "peak live        %d words\n", res.HeapStats.PeakLive)
	fmt.Fprintf(stdout, "frames traced    %d (%d slots)\n", res.GCStats.FramesTraced, res.GCStats.SlotsTraced)
	fmt.Fprintf(stdout, "type_gc built    %d\n", res.GCStats.TypeGCBuilt)
	fmt.Fprintf(stdout, "gc metadata      %d words (%d descriptor nodes)\n", res.MetadataWords, res.DescNodes)
	fmt.Fprintf(stdout, "gc_words elided  %d of %d direct call sites\n", res.Anal.ElidedSites, res.Anal.DirectCallSites)
	fmt.Fprintf(stdout, "code size        %d words\n", res.CodeWords)
}

// Command tfserve drives the overload-resilience serving harness: an
// open-loop request generator (arrival rate, burst, heavy-tail service
// mix) over a task workload, with bounded admission, load shedding,
// client retry, and the degradation ladder (shed arrivals → forced
// major/tenure-all collections → deadline cancellation) standing between
// overload and global failure.
//
//	tfserve                                  # closed-loop taskserve run (tfbench twin)
//	tfserve -period 3000 -requests 120       # open-loop arrivals at one request per 3000 steps
//	tfserve -period 3000 -requests 120 -mix req_tiny:6,req_small:3,req_medium:2,req_heavy:1
//	tfserve -period 1500 -burst 2 -requests 60 -queue 8 -inflight 4 -shed-heap 85 \
//	        -retries 3 -deadline 400000 -budget-steps 2000000
//	tfserve -json ...                        # tagfree-bench/v1 snapshot on stdout
//	tfserve -bench-json out.json ...         # table + snapshot file
//	tfserve -scenario testdata/scenarios/overload.tfs   # declarative overload matrix
//
// Flags mirror tfgc/tfbench: the collector knobs (-gc, -heap, -marksweep,
// -gc-nursery, -gc-promote, -tlab), the robustness knobs
// (-verify-heap, -gc-torture, -fail-alloc, -fail-every, -fail-refills,
// -heap-grow, -heap-max), and -gc-stats for the per-collection telemetry
// table. Budgets (-budget-steps, -budget-alloc) terminate any task that
// exceeds its per-request quota with a BudgetExceeded fault.
//
// All arrival scheduling and latency accounting is in virtual steps, so
// reported p50/p99/p999 latencies are deterministic for a given -seed;
// wall time appears only in the throughput line (EXPERIMENTS.md, E14).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/scenario"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// usageError distinguishes bad invocations (exit 2) from runtime failures
// (exit 1).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tfserve:", err)
		if _, ok := err.(*usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// cli runs one tfserve invocation, writing the report to stdout. It is
// the whole command minus process concerns (exit codes, stderr), so tests
// can drive it directly.
func cli(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tfserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "taskserve", "task workload whose entries are the service classes")
	gcName := fs.String("gc", "compiled", "collector: compiled, interp, appel, tagged")
	heap := fs.Int("heap", 0, "semispace size in words (0 = the workload's recommendation)")
	markSweep := fs.Bool("marksweep", false, "mark/sweep heap discipline instead of semispace copying")
	nursery := fs.Int("gc-nursery", 0, "generational nursery size in words per young half (0 = off)")
	promote := fs.Int("gc-promote", 0, "nursery survival count before promotion (0 = default of 2)")
	tlab := fs.Int("tlab", 0, "per-task allocation buffer chunk in words (0 = off)")
	gcConc := fs.Bool("gc-concurrent", false, "mostly-concurrent marking (-marksweep, no nursery)")
	concPct := fs.Int("gc-conc-trigger", 0, "heap-occupancy percent that starts a concurrent cycle (0 = 75)")
	concBudget := fs.Int("gc-conc-budget", 0, "words marked per concurrent slice (0 = default)")
	concSlices := fs.Int("gc-conc-maxslices", 0, "slice watchdog before a cycle aborts to stop-the-world (0 = derived)")
	shards := fs.Int("shards", 0, "partition tasks and nursery into N heap shards with independent minor collections (needs -gc-nursery)")
	heapLive := fs.Bool("gc-heap-liveness", false, "liveness-guided tracing: prune provably dead element fields (compiled strategy)")
	poison := fs.Bool("poison-pruned", false, "fault any load of a pruned field (debug mode for -gc-heap-liveness)")
	verifyHeap := fs.Bool("verify-heap", false, "verify heap invariants after every collection")
	torture := fs.Bool("gc-torture", false, "collect before every allocation")
	failNth := fs.Int64("fail-alloc", 0, "inject one allocation failure at the Nth allocation")
	failEvery := fs.Int64("fail-every", 0, "inject an allocation failure every Kth allocation")
	failRefills := fs.Bool("fail-refills", false, "restrict -fail-alloc/-fail-every to TLAB refill carves")
	heapGrow := fs.Float64("heap-grow", 0, "heap growth factor when collection cannot satisfy an allocation (>1 enables)")
	heapMax := fs.Int("heap-max", 0, "hard ceiling for heap growth in semispace words (0 = unbounded)")
	budgetSteps := fs.Int64("budget-steps", 0, "per-task step budget; exceeding it faults the task (0 = off)")
	budgetAlloc := fs.Int64("budget-alloc", 0, "per-task allocation-word budget (0 = off)")
	period := fs.Int64("period", 0, "inter-arrival period in steps (0 = closed-loop corpus run)")
	burst := fs.Int("burst", 1, "requests arriving together each period")
	requests := fs.Int("requests", 0, "total requests to issue (open loop)")
	seed := fs.Int64("seed", 1, "PRNG seed for mix sampling and retry jitter")
	queue := fs.Int("queue", 0, "admission queue depth (0 = default 16)")
	inflight := fs.Int("inflight", 0, "max concurrently running requests (0 = default 8)")
	shedHeap := fs.Int("shed-heap", 0, "shed arrivals at this heap occupancy percentage (0 = off)")
	retries := fs.Int("retries", 0, "max client retries after a shed")
	backoff := fs.Int64("backoff", 0, "initial retry backoff in steps (0 = period)")
	backoffCap := fs.Int64("backoff-cap", 0, "retry backoff ceiling in steps (0 = 64x backoff)")
	deadline := fs.Int64("deadline", 0, "cancel admitted requests running longer than this many steps (0 = off)")
	mixSpec := fs.String("mix", "", "weighted service mix, entry:weight[,entry:weight...] (empty = uniform)")
	gcStats := fs.Bool("gc-stats", false, "print the per-collection GC telemetry table after the report")
	asJSON := fs.Bool("json", false, "emit the tagfree-bench/v1 snapshot on stdout instead of the table")
	benchJSON := fs.String("bench-json", "", "additionally write the snapshot to this file")
	scenarioPath := fs.String("scenario", "", "run the scenario matrix from a .tfs file or directory instead of flags")
	if err := fs.Parse(args); err != nil {
		return &usageError{err.Error()}
	}
	if fs.NArg() != 0 {
		return &usageError{fmt.Sprintf("unexpected argument %q", fs.Arg(0))}
	}

	if *scenarioPath != "" {
		return runScenario(*scenarioPath, *asJSON, *benchJSON, stdout)
	}

	w, ok := workloads.TaskByName(*workload)
	if !ok {
		return &usageError{fmt.Sprintf("unknown task workload %q", *workload)}
	}
	strat, err := parseStrategy(*gcName)
	if err != nil {
		return err
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	heapWords := *heap
	if heapWords == 0 {
		heapWords = w.HeapWords
	}
	cfg := serve.Config{
		Workload: w,
		Mix:      mix,
		Opts: pipeline.Options{
			Strategy:         strat,
			HeapWords:        heapWords,
			MarkSweep:        *markSweep,
			NurseryWords:     *nursery,
			PromoteAfter:     *promote,
			TLABWords:        *tlab,
			VerifyHeap:       *verifyHeap,
			Torture:          *torture,
			FailAllocNth:     *failNth,
			FailAllocEvery:   *failEvery,
			FailRefillsOnly:  *failRefills,
			GrowFactor:       *heapGrow,
			MaxHeapWords:     *heapMax,
			BudgetSteps:      *budgetSteps,
			BudgetAllocWords: *budgetAlloc,
			GCConcurrent:     *gcConc,
			ConcTriggerPct:   *concPct,
			ConcMarkBudget:   *concBudget,
			ConcMaxSlices:    *concSlices,
			Shards:           *shards,
			GCHeapLiveness:   *heapLive,
			PoisonPruned:     *poison,
		},
		Period:      *period,
		Burst:       *burst,
		Requests:    *requests,
		Seed:        *seed,
		QueueDepth:  *queue,
		MaxInflight: *inflight,
		ShedHeapPct: *shedHeap,
		MaxRetries:  *retries,
		Backoff:     *backoff,
		BackoffCap:  *backoffCap,
		Deadline:    *deadline,
	}
	res, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	rep := serve.NewReport(w.Name, cfg, res)
	snap := serve.Snapshot{Schema: serve.SnapshotSchema, Runs: []serve.Report{rep}}
	if err := emit(stdout, snap, rep.Table(), *asJSON, *benchJSON); err != nil {
		return err
	}
	if *gcStats {
		fmt.Fprint(stdout, pipeline.TelemetryTable(&res.Group.Col.Telem, pipeline.TelemetryOptions{Tasks: true}))
	}
	return nil
}

// runScenario compiles a .tfs file (or directory) and runs the matrix —
// the declarative twin of the flag form; tfbench -scenario emits the same
// report. Files that fail to load are all reported before giving up.
func runScenario(path string, asJSON bool, benchJSON string, stdout io.Writer) error {
	scs, errs := scenario.LoadPathAll(path)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "tfserve: scenario:", err)
	}
	cells, err := scenario.Compile(scs)
	if err != nil {
		return err
	}
	snap := scenario.RunMatrix(cells)
	if err := emit(stdout, snap, snap.Table(), asJSON, benchJSON); err != nil {
		return err
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d scenario file(s) failed to load", len(errs))
	}
	return nil
}

// emit renders the report: the table by default, the snapshot JSON on
// stdout with -json, and additionally to a file when -bench-json names one.
func emit(stdout io.Writer, snap any, table string, asJSON bool, benchJSON string) error {
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if asJSON {
		stdout.Write(js)
	} else {
		fmt.Fprint(stdout, table)
	}
	if benchJSON != "" && benchJSON != "-" {
		if err := os.WriteFile(benchJSON, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", benchJSON)
	}
	return nil
}

// parseMix parses the -mix spec: entry:weight pairs, comma-separated.
func parseMix(spec string) ([]serve.MixEntry, error) {
	if spec == "" {
		return nil, nil
	}
	var mix []serve.MixEntry
	for _, part := range strings.Split(spec, ",") {
		entry, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, &usageError{fmt.Sprintf("mix: %q is not entry:weight", part)}
		}
		n, err := strconv.Atoi(weight)
		if err != nil || n < 1 {
			return nil, &usageError{fmt.Sprintf("mix: bad weight in %q", part)}
		}
		mix = append(mix, serve.MixEntry{Entry: entry, Weight: n})
	}
	return mix, nil
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
	return 0, &usageError{fmt.Sprintf("unknown collector %q (want compiled, interp, appel or tagged)", name)}
}

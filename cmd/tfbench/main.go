// Command tfbench regenerates the experiment tables (E1–E17; see
// EXPERIMENTS.md). With arguments, it runs only the named experiments.
//
//	tfbench              # all experiments
//	tfbench e1 e4        # selected experiments
//	tfbench -repeats 5 e2
//	tfbench telemetry    # per-collection GC telemetry over the task corpus
//	tfbench -json telemetry
//	tfbench -bench-json BENCH_PR3.json   # machine-readable benchmark snapshot
//	tfbench -scenario testdata/scenarios/          # declarative scenario matrix
//	tfbench -scenario run.tfs -json                # ... as a tagfree-bench/v1 snapshot
//	tfbench -scenario run.tfs -bench-json out.json # table + snapshot file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tagfree/internal/experiments"
	"tagfree/internal/gc"
	"tagfree/internal/pipeline"
	"tagfree/internal/scenario"
	"tagfree/internal/workloads"
)

func main() {
	repeats := flag.Int("repeats", 3, "timing repetitions (best-of)")
	asJSON := flag.Bool("json", false, "emit the telemetry report as JSON instead of tables")
	verifyHeap := flag.Bool("verify-heap", false, "verify heap invariants after every collection (telemetry report)")
	torture := flag.Bool("gc-torture", false, "collect before every allocation (telemetry report)")
	nursery := flag.Int("gc-nursery", 0, "generational nursery size in words per young half (telemetry report)")
	tlab := flag.Int("tlab", 0, "per-task allocation buffer chunk in words (telemetry report)")
	gcConc := flag.Bool("gc-concurrent", false, "mostly-concurrent marking on the mark/sweep rows (telemetry report)")
	shards := flag.Int("shards", 0, "heap shards with independent minor collections (telemetry report; needs -gc-nursery)")
	heapLive := flag.Bool("gc-heap-liveness", false, "liveness-guided tracing: prune provably dead element fields (telemetry report)")
	benchJSON := flag.String("bench-json", "", "write the benchmark snapshot (schema tagfree-bench/v1) to this file and exit; \"-\" for stdout")
	scenarioPath := flag.String("scenario", "", "run the scenario matrix from a .tfs file or a directory of .tfs files")
	flag.Parse()

	if *scenarioPath != "" {
		runScenarioMatrix(*scenarioPath, *asJSON, *benchJSON)
		return
	}

	if *benchJSON != "" {
		writeBenchSnapshot(*benchJSON, *repeats)
		return
	}

	runners := map[string]func() *experiments.Table{
		"e1":  experiments.E1HeapSpace,
		"e2":  func() *experiments.Table { return experiments.E2MutatorTags(*repeats) },
		"e3":  experiments.E3Liveness,
		"e4":  func() *experiments.Table { return experiments.E4SpaceTime(*repeats) },
		"e5":  experiments.E5GCWordElision,
		"e6":  experiments.E6PolyWalk,
		"e7":  experiments.E7Tasking,
		"e8":  experiments.E8RuntimeReps,
		"e9":  func() *experiments.Table { return experiments.E9MarkSweep(*repeats) },
		"e10": experiments.E10FastPath,
		"e11": experiments.E11Generational,
		"e12": experiments.E12AllocContention,
		"e13": experiments.E13ScenarioMatrix,
		"e14": experiments.E14Overload,
		"e15": func() *experiments.Table { return experiments.E15ConcurrentMark(*repeats) },
		"e16": experiments.E16ShardedMinors,
		"e17": experiments.E17HeapLiveness,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17"}

	selected := flag.Args()
	if len(selected) == 0 {
		selected = order
	}
	for _, name := range selected {
		if strings.EqualFold(name, "telemetry") {
			telemetryReport(*asJSON, *verifyHeap, *torture, *nursery, *tlab, *gcConc, *shards, *heapLive)
			continue
		}
		r, ok := runners[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s, telemetry)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Println(r().Render())
	}
}

// runScenarioMatrix loads .tfs scenarios from a file or directory,
// compiles them against the tasking corpus, executes every cell and emits
// the comparative report: the aligned table by default, the
// tagfree-bench/v1 snapshot on stdout with -json, and additionally to a
// file when -bench-json names one. On a directory, every failing file is
// reported (not just the first) and the scenarios that did load still
// compile and run; the exit status turns nonzero only after the rest of
// the matrix has been emitted.
func runScenarioMatrix(path string, asJSON bool, benchJSON string) {
	scs, loadErrs := scenario.LoadPathAll(path)
	for _, err := range loadErrs {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
	}
	if len(scs) == 0 {
		os.Exit(2)
	}
	cells, err := scenario.Compile(scs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	snap := scenario.RunMatrix(cells)
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if asJSON {
		os.Stdout.Write(js)
	} else {
		fmt.Print(snap.Table())
	}
	if benchJSON != "" && benchJSON != "-" {
		if err := os.WriteFile(benchJSON, js, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d cells, schema %s)\n", benchJSON, len(snap.Runs), snap.Schema)
	}
	if len(loadErrs) > 0 {
		fmt.Fprintf(os.Stderr, "scenario: %d file(s) failed to load\n", len(loadErrs))
		os.Exit(2)
	}
}

// writeBenchSnapshot regenerates the machine-readable benchmark snapshot
// (experiments.Bench) and writes it to path — the file committed as
// BENCH_PR<n>.json to make pause behavior comparable across the
// repository's history. See EXPERIMENTS.md for the schema.
func writeBenchSnapshot(path string, repeats int) {
	snap := experiments.Bench(repeats)
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if path == "-" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs, schema %s)\n", path, len(snap.Runs), snap.Schema)
}

// telemetryReport runs the multi-task workload corpus under the compiled
// strategy in both heap disciplines and emits each run's per-collection
// telemetry — the table form for reading, the JSON form for tooling.
// verify and torture thread the robustness knobs through, turning the
// report into a GC stress run over the whole corpus; nursery > 0 runs it
// generationally (tier2-nursery combines all three under -race); tlab > 0
// gives each task a private allocation buffer of that many words and grows
// the refill/fast/shared/waste columns plus the cumulative tlab line.
func telemetryReport(asJSON, verify, torture bool, nursery, tlab int, conc bool, shards int, heapLive bool) {
	for _, w := range workloads.Tasking {
		for _, ms := range []bool{false, true} {
			opts := pipeline.Options{
				Strategy:       gc.StratCompiled,
				HeapWords:      w.HeapWords,
				MarkSweep:      ms,
				VerifyHeap:     verify,
				Torture:        torture,
				NurseryWords:   nursery,
				TLABWords:      tlab,
				GCHeapLiveness: heapLive,
			}
			if shards > 1 && nursery > 0 {
				opts.Shards = shards
			}
			if conc && ms && nursery == 0 {
				// -gc-concurrent applies only where the incremental marker
				// exists: the non-nursery mark/sweep rows.
				opts.GCConcurrent = true
			}
			res, err := pipeline.RunTasks(w.Source, w.Entries, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			if asJSON {
				js, err := pipeline.TelemetryJSON(res.Telemetry, pipeline.TelemetryOptions{})
				if err != nil {
					fmt.Fprintf(os.Stderr, "telemetry %s: %v\n", w.Name, err)
					os.Exit(1)
				}
				fmt.Println(string(js))
				continue
			}
			fmt.Printf("%s (%d tasks)\n", w.Name, len(w.Entries))
			fmt.Println(pipeline.TelemetryTable(res.Telemetry, pipeline.TelemetryOptions{Tasks: true}))
		}
	}
}

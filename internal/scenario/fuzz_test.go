package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse fuzzes the .tfs lexer and parser, seeded from the
// committed corpus plus near-miss mutations. The properties: parsing
// never panics, every rejection is a *PosError carrying a valid 1-based
// position, and anything that parses has well-formed axes and survives
// the compiler without panicking.
func FuzzScenarioParse(f *testing.F) {
	if dir, err := FindCorpusDir(); err == nil {
		files, _ := filepath.Glob(filepath.Join(dir, "*.tfs"))
		for _, file := range files {
			if src, err := os.ReadFile(file); err == nil {
				f.Add(string(src))
			}
		}
	}
	f.Add("scenario x { workload taskchurn }")
	f.Add("scenario x {\n  workload taskchurn\n  strategies compiled wizard\n}")
	f.Add("scenario x {\n  nursery 7\n  tlab 999999\n}")
	f.Add("scenario x {\n  faults { heap-grow 1.5 }\n}")
	f.Add("scenario { {")
	f.Add("# just a comment\n\n")
	f.Add("scenario x { workload \xff }")
	f.Add("scenario x {\n  workload taskserve\n  arrivals {\n    period 3000\n    requests 40\n  }\n}")
	f.Add("scenario x {\n  workload taskserve\n  arrivals {\n    period 3000\n    requests 40\n    queue 8\n    shed-heap 85\n    deadline 400000\n    budget-steps 50000\n  }\n  mix {\n    req_tiny 3\n    req_heavy 1\n  }\n}")
	f.Add("scenario x {\n  workload taskserve\n  arrivals { requests 40 }\n}")   // missing period
	f.Add("scenario x {\n  workload taskserve\n  mix { req_tiny 1 }\n}")         // mix without arrivals
	f.Add("scenario x {\n  arrivals { period 1 period 2 requests 1 }\n}")        // duplicate key
	f.Add("scenario x {\n  arrivals { period 1 requests 1 shed-heap 200 }\n}")   // watermark out of range
	f.Add("scenario x {\n  arrivals { period 1 requests 1 budget-steps 99999999999999999999 }\n}")
	f.Add("scenario x {\n  arrivals { period 1 requests 1 }\n  mix { req_tiny 0 }\n}")
	f.Add("scenario x {\n  workload taskspine\n  gc_heap_liveness\n}")
	f.Add("scenario x {\n  workload taskspine\n  strategies tagged\n  disciplines marksweep\n  gc_heap_liveness\n  gc_concurrent\n}") // multi-reason skip cells
	f.Add("scenario x {\n  workload taskspine\n  gc_heap_liveness extra\n}") // key takes no argument
	f.Add("scenario x {\n  gc_heap_liveness\n  gc_heap_liveness\n}")         // duplicate key

	f.Fuzz(func(t *testing.T, src string) {
		scs, err := Parse(src)
		if err != nil {
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *PosError: %v", err, err)
			}
			if pe.Pos.Line < 1 || pe.Pos.Col < 1 {
				t.Fatalf("diagnostic with invalid position %v: %v", pe.Pos, err)
			}
			return
		}
		for _, sc := range scs {
			if sc.Name == "" || sc.Workload == "" {
				t.Fatalf("accepted scenario with empty name/workload: %+v", sc)
			}
			if len(sc.Strategies) == 0 || len(sc.Disciplines) == 0 || len(sc.Shards) == 0 || sc.Repeats < 1 {
				t.Fatalf("accepted scenario with empty axis: %+v", sc)
			}
		}
		// The compiler may reject (unknown workload, contradictory
		// sizes) but must never panic, and its rejections are
		// positioned too.
		if _, err := Compile(scs); err != nil {
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("compile error %T is not a *PosError: %v", err, err)
			}
			if pe.Pos.Line < 1 || pe.Pos.Col < 1 {
				t.Fatalf("compile diagnostic with invalid position %v: %v", pe.Pos, err)
			}
		}
	})
}

package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/workloads"
)

// singleTaskCounters renders one single-task run's deterministic work
// counters: the mutator's instruction stream and frame shape, and the
// collector's collection points and work.
func singleTaskCounters(name string, res *Result) string {
	v, g, h := res.VMStats, res.GCStats, res.HeapStats
	return fmt.Sprintf("%s instr=%d calls=%d clos=%d allocs=%d zfill=%d stack=%d depth=%d gcs=%d frames=%d slots=%d objs=%d walloc=%d wcopied=%d peak=%d",
		name, v.Instructions, v.Calls, v.ClosCalls, v.Allocations, v.ZeroFilledWords,
		v.MaxStackWords, v.MaxFrameDepth, g.Collections, g.FramesTraced, g.SlotsTraced,
		g.ObjectsCopied, h.WordsAllocated, h.WordsCopied, h.PeakLive)
}

// TestSingleTaskCountersGolden pins the exact deterministic counters of
// every corpus workload under all four strategies with default options at
// the workload's heap size. Equal counters mean the interpreter executed
// the same instruction stream and collected at the same points.
func TestSingleTaskCountersGolden(t *testing.T) {
	var got []string
	for _, w := range workloads.All {
		for _, strat := range Strategies {
			res, err := Run(w.Source, Options{Strategy: strat, HeapWords: w.HeapWords})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, strat, err)
			}
			if res.Value != w.Expect {
				t.Fatalf("%s/%v: result %d, want %d", w.Name, strat, res.Value, w.Expect)
			}
			got = append(got, singleTaskCounters(fmt.Sprintf("%s/%v", w.Name, strat), res))
		}
	}
	want := strings.Split(strings.TrimSpace(singleTaskCountersWant), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != strings.TrimSpace(want[i]) {
			t.Errorf("counters differ:\n  got  %s\n  want %s", got[i], strings.TrimSpace(want[i]))
		}
	}
}

const singleTaskCountersWant = `
fib/compiled instr=429848 calls=57313 clos=0 allocs=0 zfill=0 stack=224 depth=23 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
fib/interp instr=429848 calls=57313 clos=0 allocs=0 zfill=0 stack=224 depth=23 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
fib/appel instr=429848 calls=57313 clos=0 allocs=0 zfill=458506 stack=224 depth=23 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
fib/tagged instr=429848 calls=57313 clos=0 allocs=0 zfill=458506 stack=224 depth=23 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
tak/compiled instr=429362 calls=63609 clos=0 allocs=0 zfill=0 stack=256 depth=19 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
tak/interp instr=429362 calls=63609 clos=0 allocs=0 zfill=0 stack=256 depth=19 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
tak/appel instr=429362 calls=63609 clos=0 allocs=0 zfill=763310 stack=256 depth=19 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
tak/tagged instr=429362 calls=63609 clos=0 allocs=0 zfill=763310 stack=256 depth=19 gcs=0 frames=0 slots=0 objs=0 walloc=0 wcopied=0 peak=0
listchurn/compiled instr=1686758 calls=132361 clos=0 allocs=126750 zfill=0 stack=1495 depth=123 gcs=269 frames=17955 slots=13234 objs=11245 walloc=253500 wcopied=22490 peak=174
listchurn/interp instr=1686758 calls=132361 clos=0 allocs=126750 zfill=0 stack=1495 depth=123 gcs=269 frames=17955 slots=13234 objs=11245 walloc=253500 wcopied=22490 peak=174
listchurn/appel instr=1686758 calls=132361 clos=0 allocs=126750 zfill=1439200 stack=1495 depth=123 gcs=419 frames=31005 slots=212510 objs=88262 walloc=253500 wcopied=176524 peak=550
listchurn/tagged instr=1686758 calls=132361 clos=0 allocs=126750 zfill=1439200 stack=1495 depth=123 gcs=1109 frames=78574 slots=0 objs=251728 walloc=380250 wcopied=755184 peak=810
btree/compiled instr=236058 calls=25601 clos=0 allocs=6350 zfill=0 stack=637 depth=60 gcs=24 frames=816 slots=120 objs=2088 walloc=19050 wcopied=6264 peak=261
btree/interp instr=236058 calls=25601 clos=0 allocs=6350 zfill=0 stack=637 depth=60 gcs=24 frames=816 slots=120 objs=2088 walloc=19050 wcopied=6264 peak=261
btree/appel instr=236058 calls=25601 clos=0 allocs=6350 zfill=281060 stack=637 depth=60 gcs=24 frames=816 slots=600 objs=2088 walloc=19050 wcopied=6264 peak=261
btree/tagged instr=236058 calls=25601 clos=0 allocs=6350 zfill=281060 stack=637 depth=60 gcs=24 frames=816 slots=0 objs=48 walloc=25400 wcopied=192 peak=8
nqueens/compiled instr=76400 calls=6186 clos=0 allocs=1046 zfill=0 stack=626 depth=38 gcs=2 frames=42 slots=16 objs=22 walloc=2092 wcopied=44 peak=24
nqueens/interp instr=76400 calls=6186 clos=0 allocs=1046 zfill=0 stack=626 depth=38 gcs=2 frames=42 slots=16 objs=22 walloc=2092 wcopied=44 peak=24
nqueens/appel instr=76400 calls=6186 clos=0 allocs=1046 zfill=69750 stack=626 depth=38 gcs=2 frames=48 slots=191 objs=69 walloc=2092 wcopied=138 peak=72
nqueens/tagged instr=76400 calls=6186 clos=0 allocs=1046 zfill=69750 stack=626 depth=38 gcs=3 frames=67 slots=0 objs=108 walloc=3138 wcopied=324 peak=120
qsort/compiled instr=17708 calls=1167 clos=624 allocs=672 zfill=0 stack=984 depth=62 gcs=1 frames=10 slots=9 objs=59 walloc=1344 wcopied=118 peak=118
qsort/interp instr=17708 calls=1167 clos=624 allocs=672 zfill=0 stack=984 depth=62 gcs=1 frames=10 slots=9 objs=59 walloc=1344 wcopied=118 peak=118
qsort/appel instr=17708 calls=1167 clos=624 allocs=672 zfill=18296 stack=984 depth=62 gcs=1 frames=10 slots=98 objs=224 walloc=1344 wcopied=448 peak=448
qsort/tagged instr=17708 calls=1167 clos=624 allocs=672 zfill=18296 stack=984 depth=62 gcs=3 frames=28 slots=0 objs=669 walloc=2016 wcopied=2007 peak=777
sieve/compiled instr=304568 calls=17701 clos=12330 allocs=14580 zfill=0 stack=1908 depth=132 gcs=14 frames=910 slots=14 objs=728 walloc=29160 wcopied=1456 peak=104
sieve/interp instr=304568 calls=17701 clos=12330 allocs=14580 zfill=0 stack=1908 depth=132 gcs=14 frames=910 slots=14 objs=728 walloc=29160 wcopied=1456 peak=104
sieve/appel instr=304568 calls=17701 clos=12330 allocs=14580 zfill=281740 stack=1908 depth=132 gcs=14 frames=910 slots=2002 objs=728 walloc=29160 wcopied=1456 peak=104
sieve/tagged instr=304568 calls=17701 clos=12330 allocs=14580 zfill=281740 stack=1908 depth=132 gcs=29 frames=1015 slots=0 objs=5684 walloc=43740 wcopied=17052 peak=588
polypipe/compiled instr=18440 calls=1315 clos=1008 allocs=1359 zfill=0 stack=438 depth=32 gcs=2 frames=22 slots=12 objs=95 walloc=2655 wcopied=189 peak=113
polypipe/interp instr=18440 calls=1315 clos=1008 allocs=1359 zfill=0 stack=438 depth=32 gcs=2 frames=22 slots=12 objs=95 walloc=2655 wcopied=189 peak=113
polypipe/appel instr=18440 calls=1315 clos=1008 allocs=1359 zfill=17776 stack=438 depth=32 gcs=2 frames=19 slots=78 objs=140 walloc=2655 wcopied=276 peak=138
polypipe/tagged instr=18440 calls=1315 clos=1008 allocs=1359 zfill=17776 stack=438 depth=32 gcs=4 frames=64 slots=0 objs=176 walloc=4014 wcopied=520 peak=130
closures/compiled instr=66458 calls=6451 clos=3225 allocs=4800 zfill=0 stack=1061 depth=99 gcs=9 frames=504 slots=18 objs=72 walloc=9450 wcopied=135 peak=15
closures/interp instr=66458 calls=6451 clos=3225 allocs=4800 zfill=0 stack=1061 depth=99 gcs=9 frames=504 slots=18 objs=72 walloc=9450 wcopied=135 peak=15
closures/appel instr=66458 calls=6451 clos=3225 allocs=4800 zfill=63310 stack=1061 depth=99 gcs=9 frames=504 slots=423 objs=72 walloc=9450 wcopied=135 peak=15
closures/tagged instr=66458 calls=6451 clos=3225 allocs=4800 zfill=63310 stack=1061 depth=99 gcs=14 frames=651 slots=0 objs=350 walloc=14250 wcopied=1036 peak=74
evaluator/compiled instr=619908 calls=50801 clos=0 allocs=50500 zfill=0 stack=1529 depth=115 gcs=99 frames=5940 slots=792 objs=31284 walloc=126200 wcopied=77814 peak=786
evaluator/interp instr=619908 calls=50801 clos=0 allocs=50500 zfill=0 stack=1529 depth=115 gcs=99 frames=5940 slots=792 objs=31284 walloc=126200 wcopied=77814 peak=786
evaluator/appel instr=619908 calls=50801 clos=0 allocs=50500 zfill=1631810 stack=1529 depth=115 gcs=99 frames=5940 slots=7722 objs=31284 walloc=126200 wcopied=77814 peak=786
evaluator/tagged instr=619908 calls=50801 clos=0 allocs=50500 zfill=1631810 stack=1529 depth=115 gcs=99 frames=5841 slots=0 objs=8118 walloc=176700 wcopied=27819 peak=281
mutate/compiled instr=73704 calls=5293 clos=2450 allocs=2646 zfill=0 stack=1358 depth=126 gcs=1 frames=99 slots=3 objs=8 walloc=5194 wcopied=15 peak=15
mutate/interp instr=73704 calls=5293 clos=2450 allocs=2646 zfill=0 stack=1358 depth=126 gcs=1 frames=99 slots=3 objs=8 walloc=5194 wcopied=15 peak=15
mutate/appel instr=73704 calls=5293 clos=2450 allocs=2646 zfill=64592 stack=1358 depth=126 gcs=1 frames=99 slots=62 objs=8 walloc=5194 wcopied=15 peak=15
mutate/tagged instr=73704 calls=5293 clos=2450 allocs=2646 zfill=64592 stack=1358 depth=126 gcs=1 frames=76 slots=0 objs=5 walloc=7840 wcopied=14 peak=14
deeppoly/compiled instr=4567 calls=702 clos=0 allocs=702 zfill=0 stack=1944 depth=177 gcs=1 frames=83 slots=2 objs=1 walloc=1404 wcopied=2 peak=2
deeppoly/interp instr=4567 calls=702 clos=0 allocs=702 zfill=0 stack=1944 depth=177 gcs=1 frames=83 slots=2 objs=1 walloc=1404 wcopied=2 peak=2
deeppoly/appel instr=4567 calls=702 clos=0 allocs=702 zfill=4574 stack=1944 depth=177 gcs=1 frames=83 slots=87 objs=2 walloc=1404 wcopied=4 peak=4
deeppoly/tagged instr=4567 calls=702 clos=0 allocs=702 zfill=4574 stack=1944 depth=177 gcs=2 frames=340 slots=0 objs=4 walloc=2106 wcopied=12 peak=9
cps/compiled instr=32208 calls=2561 clos=1240 allocs=2440 zfill=0 stack=1088 depth=104 gcs=6 frames=294 slots=9 objs=99 walloc=6040 wcopied=252 peak=78
cps/interp instr=32208 calls=2561 clos=1240 allocs=2440 zfill=0 stack=1088 depth=104 gcs=6 frames=294 slots=9 objs=99 walloc=6040 wcopied=252 peak=78
cps/appel instr=32208 calls=2561 clos=1240 allocs=2440 zfill=30090 stack=1088 depth=104 gcs=6 frames=264 slots=972 objs=300 walloc=6040 wcopied=708 peak=118
cps/tagged instr=32208 calls=2561 clos=1240 allocs=2440 zfill=30090 stack=1088 depth=104 gcs=9 frames=405 slots=0 objs=468 walloc=8480 wcopied=1584 peak=176
thunks/compiled instr=10568 calls=1021 clos=300 allocs=1500 zfill=0 stack=452 depth=43 gcs=3 frames=87 slots=21 objs=39 walloc=3300 wcopied=96 peak=32
thunks/interp instr=10568 calls=1021 clos=300 allocs=1500 zfill=0 stack=452 depth=43 gcs=3 frames=87 slots=21 objs=39 walloc=3300 wcopied=96 peak=32
thunks/appel instr=10568 calls=1021 clos=300 allocs=1500 zfill=9910 stack=452 depth=43 gcs=3 frames=87 slots=117 objs=39 walloc=3300 wcopied=96 peak=32
thunks/tagged instr=10568 calls=1021 clos=300 allocs=1500 zfill=9910 stack=452 depth=43 gcs=4 frames=112 slots=0 objs=72 walloc=4800 wcopied=252 peak=63
`

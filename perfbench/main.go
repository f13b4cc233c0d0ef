// Command perfbench is the repository benchmark. It generates MinML
// programs from a seed, takes each one from source to a result checked
// against a Go reference through the public pipeline API (one op), and runs
// ops in a closed loop for a fixed time. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it also runs the same pool traced, with
// a span around every layer call, and reports per-layer metrics, self-time
// shares and the tracing overhead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload compute|tasks-liveheap|short-programs -seed N -seconds S -trace 0|1 [-out DIR]
//
// The last line of standard output is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"
)

// workload is one closed-loop op source. The pool is generated from the
// seed and cycled; every program in it runs at least once per phase, so
// per-program counters cover the whole pool.
type workload struct {
	name string
	pool int
	gen  func(r *rng) job
}

var benchWorkloads = []workload{
	{name: "compute", pool: 40, gen: genCompute},
	{name: "tasks-liveheap", pool: 24, gen: genTasks},
	{name: "short-programs", pool: 32, gen: genShort},
}

// Set-up is program generation (twice, to check it is byte-identical),
// then warm-up ops on the first programs; it is repeated and the median
// reported.
const (
	setupReps = 5
	warmOps   = 2
	// probeProgs bounds the capture-point probes of a traced run.
	probeProgs = 6
)

func generate(w workload, seed int64) []job {
	r := newRNG(seed, fnvHash(w.name))
	pool := make([]job, w.pool)
	for i := range pool {
		pool[i] = w.gen(r)
	}
	return pool
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// bench accumulates one invocation's ops and its correctness verdict.
type bench struct {
	pool    []job
	first   map[int]counters // counters of each program's first execution
	defects []string
	failed  int
}

func (b *bench) defect(format string, args ...any) {
	if len(b.defects) < 20 {
		b.defects = append(b.defects, fmt.Sprintf(format, args...))
	}
}

// record checks an op: a wrong value, error or fault fails it, and so does
// a counter that differs from the program's first execution (a
// determinism defect).
func (b *bench) record(prog int, o *opResult) {
	if o.err != nil {
		b.failed++
		b.defect("program %d: %v", prog, o.err)
		return
	}
	if c, ok := b.first[prog]; !ok {
		b.first[prog] = o.c
	} else if c != o.c {
		b.failed++
		b.defect("program %d: deterministic counters differ between executions: %+v vs %+v", prog, c, o.c)
	}
}

// phase is one closed-loop measurement.
type phase struct {
	ops     []opResult
	progs   []int
	elapsed time.Duration
}

func (b *bench) measure(d time.Duration, run func(j *job, op int) opResult) phase {
	var p phase
	start := time.Now()
	for i := 0; i < len(b.pool) || time.Since(start) < d; i++ {
		k := i % len(b.pool)
		o := run(&b.pool[k], i)
		b.record(k, &o)
		p.ops = append(p.ops, o)
		p.progs = append(p.progs, k)
	}
	p.elapsed = time.Since(start)
	return p
}

// distinct returns the first op of every program in the phase.
func (p *phase) distinct() []*opResult {
	seen := map[int]bool{}
	var out []*opResult
	for i := range p.ops {
		if !seen[p.progs[i]] {
			seen[p.progs[i]] = true
			out = append(out, &p.ops[i])
		}
	}
	return out
}

func (p *phase) opsPerSec() float64 { return float64(len(p.ops)) / p.elapsed.Seconds() }

// opsPerCPUSec is ops per second of process CPU time spent in ops.
func (p *phase) opsPerCPUSec() float64 {
	var cpu int64
	for _, o := range p.ops {
		cpu += o.cpuNS
	}
	return float64(len(p.ops)) / (float64(cpu) / 1e9)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: compute, tasks-liveheap or short-programs")
	seed := flag.Int64("seed", 1, "seed the programs are generated from")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "1 = add a traced run and report per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the Chrome trace file")
	root := flag.String("root", ".", "repository root, for the environment stamp")
	flag.Parse()
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	env := stamp(*root)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	b := &bench{first: map[int]counters{}}
	if err := selfCheck(); err != nil {
		b.defect("reference self-check: %v", err)
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		pool := generate(*w, *seed)
		for i, j := range generate(*w, *seed) {
			if j.src != pool[i].src {
				b.defect("program %d: the same seed generated different sources", i)
			}
		}
		b.pool = pool
		for i := 0; i < warmOps && i < len(pool); i++ {
			o := pool[i].run()
			b.record(i, &o)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// Set-up failures are defects but not measured ops.
	b.failed = 0

	d := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	var measured phase
	if *traceOn == 0 {
		measured = b.measure(d, func(j *job, _ int) opResult { return j.run() })
		endToEnd(res.Metrics, &measured, medianF(setups))
		res.Attempted = len(measured.ops)
	} else {
		untraced := b.measure(d/2, func(j *job, _ int) opResult { return j.run() })
		tr := newTracer()
		traced := b.measure(d/2, func(j *job, op int) opResult { return j.runTraced(tr, op) })
		perLayer(res.Metrics, b, tr, &untraced, &traced)
		res.Attempted = len(untraced.ops) + len(traced.ops)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			b.defect("trace output: %v", err)
		} else if err := tr.writeChrome(path); err != nil {
			b.defect("trace output: %v", err)
		} else {
			fmt.Printf("trace %s (%d spans)\n", path, len(tr.spans))
		}
		measured = untraced
	}
	res.Failed = b.failed
	res.Correct = len(b.defects) == 0
	for _, msg := range b.defects {
		fmt.Fprintf(os.Stderr, "perfbench: defect: %s\n", msg)
	}
	details(w, *seed, b, &measured, res.Attempted, setups)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// samples returns per-op wall and CPU times, compile wall and CPU times and
// the collection pauses of a phase, in the order they happened.
type samples struct {
	opNS, opCPU, compileNS, compileCPU, pauses []int64
}

func (p *phase) samples() samples {
	var s samples
	for _, o := range p.ops {
		s.opNS = append(s.opNS, o.totalNS)
		s.opCPU = append(s.opCPU, o.cpuNS)
		s.compileNS = append(s.compileNS, o.compileNS)
		s.compileCPU = append(s.compileCPU, o.compileCPU)
		s.pauses = append(s.pauses, o.pauses...)
	}
	return s
}

// endToEnd computes the user-visible metrics of an untraced phase. Op and
// compile times are process CPU time; the collector's pauses are its own
// wall-clock PauseNS records.
func endToEnd(m map[string]metric, p *phase, setupS float64) {
	s := p.samples()
	var live, code, meta float64
	progs := p.distinct()
	for _, o := range progs {
		live += float64(o.c.PeakLive)
		code += float64(o.c.CodeWords)
		meta += float64(o.c.MetadataWords)
	}
	n := float64(len(progs))
	opTail, _, _ := windowedTail(s.opCPU, tailWindow)
	pauseTail, _, _ := windowedTail(s.pauses, tailWindow)
	m["setup_s"] = metric{setupS, "s"}
	m["ops_per_cpu_s"] = metric{p.opsPerCPUSec(), "1/s"}
	m["op_cpu_ms_p50"] = metric{float64(median(s.opCPU)) / 1e6, "ms"}
	m["op_cpu_ms_tail"] = metric{float64(opTail) / 1e6, "ms"}
	m["compile_cpu_ms_p50"] = metric{float64(median(s.compileCPU)) / 1e6, "ms"}
	m["gc_pause_us_p50"] = metric{float64(median(s.pauses)) / 1e3, "us"}
	m["gc_pause_us_tail"] = metric{float64(pauseTail) / 1e3, "us"}
	m["heap_live_words_peak"] = metric{live / n, "words"}
	m["code_words"] = metric{code / n, "words"}
	m["gc_metadata_words"] = metric{meta / n, "words"}
}

// details prints what the result line has no room for: each tail's
// percentile and sample count, the failure fraction and a digest of every
// program's deterministic counters (equal digests for equal seeds).
func details(w *workload, seed int64, b *bench, p *phase, attempted int, setups []float64) {
	s := p.samples()
	tailInfo := func(xs []int64) map[string]any {
		_, pct, windows := windowedTail(xs, tailWindow)
		return map[string]any{"percentile": pct, "samples": len(xs), "window": min(tailWindow, len(xs)), "windows": windows}
	}
	wallTail, _, _ := windowedTail(s.opNS, tailWindow)
	h := fnv.New64a()
	for i := range b.pool {
		if c, ok := b.first[i]; ok {
			fmt.Fprintf(h, "%d:%+v;", i, c)
		}
	}
	d := map[string]any{
		"workload": w.name, "seed": seed, "programs": len(b.pool),
		"setup_s_runs":     setups,
		"op_cpu_ms_tail":   tailInfo(s.opCPU),
		"gc_pause_us_tail": tailInfo(s.pauses),
		// Wall-clock counterparts of the CPU-time metrics.
		"ops_per_s":         p.opsPerSec(),
		"op_ms_p50":         float64(median(s.opNS)) / 1e6,
		"op_ms_tail":        float64(wallTail) / 1e6,
		"compile_ms_p50":    float64(median(s.compileNS)) / 1e6,
		"failed_frac":       float64(b.failed) / float64(max(attempted, 1)),
		"counters_digest":   fmt.Sprintf("%016x", h.Sum64()),
		"counters_programs": len(b.first),
	}
	line, _ := json.Marshal(d)
	fmt.Printf("details %s\n", line)
}

// Package workloads is the benchmark corpus: MinML programs with known
// results, used by the experiment harness (EXPERIMENTS.md), the Go
// benchmarks, and as cross-strategy correctness fixtures. The mix follows
// the paper's motivating workloads: list manipulation (the append example
// of §2.4), trees, variant records (§2.3), closures and higher-order
// polymorphism (§3), arithmetic-only code (the §5.1 analysis), and
// ref-cell mutation.
package workloads

// Workload is one benchmark program.
type Workload struct {
	Name        string
	Description string
	Source      string
	// Expect is main's integer result.
	Expect int64
	// HeapWords is the recommended semispace size: small enough to force
	// frequent collections, large enough for the trace-everything modes.
	HeapWords int
	// AllocHeavy marks workloads whose cost is dominated by allocation
	// (used to split experiment tables).
	AllocHeavy bool
}

// All lists the corpus in presentation order.
var All = []Workload{
	{
		Name:        "fib",
		Description: "recursive Fibonacci — pure arithmetic, allocates nothing",
		Expect:      17711,
		HeapWords:   1 << 12,
		Source: `
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let main () = fib 22
`,
	},
	{
		Name:        "tak",
		Description: "Takeuchi function — call-heavy arithmetic, allocates nothing",
		Expect:      7,
		HeapWords:   1 << 12,
		Source: `
let rec tak x y z =
  if y >= x then z
  else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
let main () = tak 18 12 6
`,
	},
	{
		Name:        "listchurn",
		Description: "append/reverse churn over integer lists (the paper's §2.4 example)",
		Expect:      62850,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec rev xs = match xs with | [] -> [] | x :: r -> append (rev r) [x]
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (rev (append (upto 40) (upto 50)))
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0
`,
	},
	{
		Name:        "btree",
		Description: "build and sum binary trees repeatedly (GCBench-style)",
		Expect:      12350,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
type tree = Leaf | Node of tree * int * tree
let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let round () = tsum (build 7)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 50 0
`,
	},
	{
		Name:        "nqueens",
		Description: "6-queens via list-of-placements search — lists plus backtracking",
		Expect:      4,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let abs x = if x < 0 then 0 - x else x
let rec safe q qs d =
  match qs with
  | [] -> true
  | x :: r -> if x = q then false else if abs (x - q) = d then false else safe q r (d + 1)
let rec range a b = if a > b then [] else a :: range (a + 1) b
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let rec try_cols cols qs n =
  match cols with
  | [] -> 0
  | c :: rest ->
    (if safe c qs 1 then solve (c :: qs) n else 0) + try_cols rest qs n
and solve qs n =
  if length qs = n then 1
  else try_cols (range 1 n) qs n
let main () = solve [] 6
`,
	},
	{
		Name:        "qsort",
		Description: "quicksort over a pseudo-random list; position-weighted checksum",
		Expect:      126358,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec filter p xs =
  match xs with
  | [] -> []
  | x :: r -> if p x then x :: filter p r else filter p r
let rec qsort xs =
  match xs with
  | [] -> []
  | p :: r ->
    append (qsort (filter (fun x -> x < p) r)) (p :: qsort (filter (fun x -> x >= p) r))
let rec lcg n seed =
  if n = 0 then [] else (seed mod 100) :: lcg (n - 1) ((seed * 75 + 74) mod 65537)
let rec wsum xs i = match xs with | [] -> 0 | x :: r -> i * x + wsum r (i + 1)
let main () = wsum (qsort (lcg 60 12345)) 1
`,
	},
	{
		Name:        "sieve",
		Description: "sieve of Eratosthenes over lists with filter closures, repeated",
		Expect:      750,
		HeapWords:   1 << 11,
		AllocHeavy:  true,
		Source: `
let rec range a b = if a > b then [] else a :: range (a + 1) b
let rec filter p xs =
  match xs with
  | [] -> []
  | x :: r -> if p x then x :: filter p r else filter p r
let rec sieve xs =
  match xs with
  | [] -> []
  | p :: r -> p :: sieve (filter (fun x -> x mod p <> 0) r)
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let round () = length (sieve (range 2 100))
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0
`,
	},
	{
		Name:        "polypipe",
		Description: "polymorphic map/fold pipelines instantiated at several types (§3)",
		Expect:      9855,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec foldl f acc xs = match xs with | [] -> acc | x :: r -> foldl f (f acc x) r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec zipsum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + zipsum r
let round () =
  let ints = map (fun x -> x * 3) (upto 20) in
  let pairs = map (fun x -> (x, x * x)) (upto 10) in
  let flags = map (fun x -> x mod 2 = 0) (upto 8) in
  let nested = map (fun x -> [x; x]) (upto 6) in
  foldl (fun a b -> a + b) 0 ints
    + zipsum pairs
    + foldl (fun a b -> if b then a + 1 else a) 0 flags
    + foldl (fun a l -> a + (match l with | x :: _ -> x | [] -> 0)) 0 nested
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 9 0
`,
	},
	{
		Name:        "closures",
		Description: "closure-heavy: build and apply chains of partial applications",
		Expect:      17400,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let add a b = a + b
let compose f g = fun x -> f (g x)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec apply_all fs x = match fs with | [] -> x | f :: r -> apply_all r (f x)
let round () =
  let adders = map add (upto 20) in
  let doubled = compose (fun x -> x * 2) (fun x -> x + 1) in
  apply_all adders (doubled 10)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 75 0
`,
	},
	{
		Name:        "evaluator",
		Description: "expression-tree interpreter — variant records (§2.3)",
		Expect:      72900,
		HeapWords:   1 << 11,
		AllocHeavy:  true,
		Source: `
type expr =
  | Num of int
  | Add of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | IfPos of expr * expr * expr
let rec eval e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Mul (a, b) -> eval a * eval b
  | Neg a -> 0 - eval a
  | IfPos (c, t, f) -> if eval c > 0 then eval t else eval f
let rec grow d =
  if d = 0 then Num 1
  else Add (Mul (Num 2, grow (d - 1)), IfPos (Num 1, grow (d - 1), Neg (Num 5)))
let round () = eval (grow 6)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 100 0
`,
	},
	{
		Name:        "mutate",
		Description: "reference-cell mutation: counters and accumulators in the heap",
		Expect:      31850,
		HeapWords:   1 << 12,
		Source: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec each f xs = match xs with | [] -> () | x :: r -> (let _ = f x in each f r)
let round () =
  let acc = ref 0 in
  let bump x = acc := !acc + x in
  each bump (upto 25);
  !acc
let rec loop n t = if n = 0 then t else loop (n - 1) (t + round ())
let main () = loop 98 0
`,
	},
	{
		Name:        "deeppoly",
		Description: "deep recursion of a polymorphic function holding a live 'a value per frame (E6 stress)",
		Expect:      350,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let main () = pdepth (1, true) 0 175 + pdepth [1] 0 175
`,
	},
	{
		Name:        "cps",
		Description: "continuation-passing sums — chains of heap closures traced via Figure-4 arrow routines",
		Expect:      18600,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sumk xs k =
  match xs with
  | [] -> k 0
  | x :: r -> sumk r (fun s -> k (x + s))
let round () = sumk (upto 30) (fun s -> s)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 40 0
`,
	},
	{
		Name:        "thunks",
		Description: "phantom-typed closures requiring runtime type reps (the E8 extension)",
		Expect:      12600,
		HeapWords:   1 << 10,
		AllocHeavy:  true,
		Source: `
let make_thunk x =
  let th = fun () -> (let _ = [x; x] in 42) in
  th
let rec apply_thunks ts = match ts with | [] -> 0 | t :: r -> t () + apply_thunks r
let rec mk n = if n = 0 then [] else make_thunk (n, n) :: mk (n - 1)
let round () = apply_thunks (mk 10)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 30 0
`,
	},
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// TaskWorkload is one multi-task benchmark program: several unit -> int
// entry functions run as concurrent tasks over a shared heap. Used by the
// collection benchmarks and the cross-strategy differential suite.
type TaskWorkload struct {
	Name        string
	Description string
	Source      string
	// Entries names the task entry functions, in spawn order.
	Entries []string
	// Expect is each task's integer result, in entry order.
	Expect []int64
	// HeapWords is the recommended shared semispace size.
	HeapWords int
}

// Tasking lists the multi-task corpus in presentation order.
var Tasking = []TaskWorkload{
	{
		Name:        "taskchurn",
		Description: "list churn on every task stack — collections see several live stacks",
		Entries:     []string{"task_a", "task_b", "task_c", "task_d"},
		Expect:      []int64{13000, 14000, 15000, 16000},
		HeapWords:   2048,
		Source: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let task_a () = work 40 0
let task_b () = work 40 1000
let task_c () = work 40 2000
let task_d () = work 40 3000
`,
	},
	{
		Name:        "tasktree",
		Description: "tree building per task — deep structures reachable from suspended frames",
		Entries:     []string{"grow_a", "grow_b", "grow_c"},
		Expect:      []int64{7410, 7410, 7410},
		HeapWords:   4096,
		Source: `
type tree = Leaf | Node of tree * int * tree
let rec build n = if n = 0 then Leaf else Node (build (n - 1), n, build (n - 1))
let rec tsum t = match t with | Leaf -> 0 | Node (l, v, r) -> tsum l + v + tsum r
let round () = tsum (build 7)
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let grow_a () = loop 30 0
let grow_b () = loop 30 0
let grow_c () = loop 30 0
`,
	},
	{
		Name:        "taskpoly",
		Description: "chains of polymorphic frames per task — type-arg resolution dominates the scan",
		Entries:     []string{"deep_a", "deep_b"},
		Expect:      []int64{5050, 6050},
		HeapWords:   512,
		Source: `
let rec len xs = match xs with | [] -> 0 | _ :: r -> len r + 1
let deep3 p = (let l = [p; p; p] in len l - 3)
let deep2 p = deep3 (p, p)
let deep1 p = deep2 (p, p)
let probe x = deep1 (x, x)
let rec drive n acc =
  if n = 0 then acc
  else drive (n - 1) (acc + n + probe n)
let deep_a () = drive 100 0
let deep_b () = drive 100 1000
`,
	},
	{
		Name:        "taskmutate",
		Description: "long-lived ref cells repeatedly repointed at fresh lists — the generational antagonist: every refresh is an old→young store through the write barrier",
		Entries:     []string{"mut_a", "mut_b", "mut_c"},
		Expect:      []int64{23400, 28400, 32400},
		HeapWords:   4096,
		Source: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec mkcells n = if n = 0 then [] else ref [n] :: mkcells (n - 1)
let rec refresh cells k =
  match cells with
  | [] -> 0
  | c :: r -> (let _ = (c := upto k) in 1 + refresh r k)
let rec harvest cells = match cells with | [] -> 0 | c :: r -> sum (!c) + harvest r
let rec cycle cells n acc =
  if n = 0 then acc
  else (let _ = refresh cells 12 in cycle cells (n - 1) (acc + harvest cells))
let work seed = (let cells = mkcells 10 in cycle cells 30 seed)
let mut_a () = work 0
let mut_b () = work 5000
let mut_c () = work 9000
`,
	},
	{
		Name:        "taskdeep",
		Description: "deep towers of one polymorphic frame — the collection fast path's motivating shape: every frame resolves the same (site, instantiation) plan",
		Entries:     []string{"tower_a", "tower_b"},
		Expect:      []int64{1500, 1500},
		HeapWords:   1024,
		Source: `
let probe x = (let _ = [x; x] in 1)
let rec pdepth x acc n =
  if n = 0 then acc
  else probe x + pdepth x acc (n - 1)
let rec towers x n acc = if n = 0 then acc else towers x (n - 1) (acc + pdepth x 0 150)
let tower_a () = towers (1, true) 10 0
let tower_b () = towers [1] 10 0
`,
	},
	{
		Name:        "taskspine",
		Description: "long-lived lists of boxed pairs consumed only by length — every element field is provably dead at every GC point, the heap-liveness pruner's motivating shape",
		Entries:     []string{"spine_a", "spine_b", "spine_c"},
		Expect:      []int64{27940, 28940, 29940},
		HeapWords:   2048,
		Source: `
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec mkpairs n = if n = 0 then [] else (n, n * 2) :: mkpairs (n - 1)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let churn () = sum (upto 30)
let rec drive spine n acc =
  if n = 0 then acc + len spine
  else drive spine (n - 1) (acc + churn ())
let spine_a () = (let s = mkpairs 40 in drive s 60 0)
let spine_b () = (let s = mkpairs 40 in drive s 60 1000)
let spine_c () = (let s = mkpairs 40 in drive s 60 2000)
`,
	},
	{
		Name:        "taskserve",
		Description: "request-sized list churn in four service classes (tiny/small/medium/heavy) — the serve harness samples these as its heavy-tail service mix",
		Entries:     []string{"req_tiny", "req_small", "req_medium", "req_heavy"},
		Expect:      []int64{650, 2600, 7800, 31200},
		HeapWords:   2048,
		Source: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let round () = sum (upto 25)
let rec work rounds acc =
  if rounds = 0 then acc
  else work (rounds - 1) (acc + round ())
let req_tiny () = work 2 0
let req_small () = work 8 0
let req_medium () = work 24 0
let req_heavy () = work 96 0
`,
	},
}

// TaskByName returns the named task workload.
func TaskByName(name string) (TaskWorkload, bool) {
	for _, w := range Tasking {
		if w.Name == name {
			return w, true
		}
	}
	return TaskWorkload{}, false
}

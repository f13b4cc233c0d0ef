package pipeline

import (
	"strings"
	"testing"

	"tagfree/internal/gc"
)

// progCase is one end-to-end program with its expected result.
type progCase struct {
	name   string
	src    string
	want   int64
	output string
	// minHeap overrides the deliberately tiny default semispace.
	minHeap int
}

// cases is the cross-strategy correctness battery. Heaps are kept small so
// every run performs many collections; all four collectors must produce
// identical results.
var cases = []progCase{
	{
		name: "arith",
		src: `
let main () = (3 + 4) * 5 - 100 / 4 + 10 mod 3
`,
		want: 11,
	},
	{
		name: "conditionals",
		src: `
let max3 a b c = if a > b then (if a > c then a else c) else (if b > c then b else c)
let main () = max3 3 9 6
`,
		want: 9,
	},
	{
		name: "list-sum",
		src: `
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let main () = sum (upto 100)
`,
		want: 5050,
	},
	{
		name: "append-rev",
		src: `
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec rev xs = match xs with | [] -> [] | x :: r -> append (rev r) [x]
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let main () = sum (rev (append (upto 20) (upto 30)))
`,
		want: 675,
	},
	{
		name: "map-filter-pipeline",
		src: `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec filter p xs =
  match xs with
  | [] -> []
  | x :: r -> if p x then x :: filter p r else filter p r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let main () = sum (map (fun x -> x * x) (filter (fun x -> x mod 2 = 0) (upto 20)))
`,
		want: 1540,
	},
	{
		name: "binary-trees",
		src: `
type tree = Leaf | Node of tree * int * tree
let rec build d v = if d = 0 then Leaf else Node (build (d - 1) (2 * v), v, build (d - 1) (2 * v + 1))
let rec sum t = match t with | Leaf -> 0 | Node (l, v, r) -> sum l + v + sum r
let main () = sum (build 8 1)
`,
		want:    32640,
		minHeap: 4096,
	},
	{
		name: "variants",
		src: `
type shape = Point | Circle of int | Rect of int * int | Tri of int * int * int
let area s =
  match s with
  | Point -> 0
  | Circle r -> 3 * r * r
  | Rect (w, h) -> w * h
  | Tri (a, b, c) -> a + b + c
let rec total xs = match xs with | [] -> 0 | s :: r -> area s + total r
let main () = total [Point; Circle 2; Rect (3, 4); Tri (1, 2, 3); Circle 1]
`,
		want: 33,
	},
	{
		name: "refs-counter",
		src: `
let main () =
  let r = ref 0 in
  let rec loop n = if n = 0 then !r else (r := !r + n; loop (n - 1)) in
  loop 100
`,
		want: 5050,
	},
	{
		name: "closures-adders",
		src: `
let make_adder k = fun x -> x + k
let rec apply_all fs x = match fs with | [] -> x | f :: r -> apply_all r (f x)
let main () = apply_all [make_adder 1; make_adder 10; make_adder 100] 5
`,
		want: 116,
	},
	{
		name: "polymorphic-append",
		src: `
let rec append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let main () =
  let a = append [1; 2; 3] [4; 5] in
  let b = append [true; false] [true] in
  let c = append [(1, true)] [(2, false)] in
  length a * 100 + length b * 10 + length c
`,
		want: 532,
	},
	{
		name: "polymorphic-map-inst",
		src: `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let main () =
  let ints = map (fun x -> x + 1) [1; 2; 3] in
  let pairs = map (fun x -> (x, x * x)) [1; 2; 3] in
  let seconds = map (fun p -> match p with (_, b) -> b) pairs in
  sum ints + sum seconds + length pairs
`,
		want: 26,
	},
	{
		name: "nested-poly-lists",
		src: `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec concat xss = match xss with | [] -> [] | xs :: r -> append xs (concat r)
and append xs ys = match xs with | [] -> ys | x :: r -> x :: append r ys
let main () =
  let xss = map (fun n -> [n; n * 10]) [1; 2; 3] in
  sum (concat xss)
`,
		want: 66,
	},
	{
		name: "paper-f-example",
		// The program fragment from §3 of the paper: f x = let y = [x;x]
		// in (y, [3]), applied at two types.
		src: `
let f x = let y = [x; x] in (y, [3])
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec count xs = match xs with | [] -> 0 | _ :: r -> 1 + count r
let main () =
  let a = f true in
  let b = f 7 in
  match a with
  | (ys, zs) ->
    match b with
    | (ws, vs) -> count ys * 1000 + sum zs * 100 + sum ws + sum vs
`,
		want: 2317,
	},
	{
		name: "higher-order-poly",
		src: `
let compose f g = fun x -> f (g x)
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () =
  let h = compose (fun x -> x * 2) (fun x -> x + 1) in
  sum (map h [1; 2; 3])
`,
		want: 18,
	},
	{
		name: "partial-application",
		src: `
let add3 a b c = a + b + c
let main () =
  let f = add3 1 in
  let g = f 10 in
  g 100 + g 200 + f 20 30
`,
		want: 373,
	},
	{
		name: "function-as-value",
		src: `
let double x = x * 2
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () = sum (map double [1; 2; 3; 4])
`,
		want: 20,
	},
	{
		name: "local-rec-mutual",
		src: `
let main () =
  let rec even n = if n = 0 then true else odd (n - 1)
  and odd n = if n = 0 then false else even (n - 1) in
  (if even 10 then 100 else 0) + (if odd 7 then 10 else 0)
`,
		want: 110,
	},
	{
		name: "globals",
		src: `
let table = [10; 20; 30]
let base = 5
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () = sum table + base
`,
		want: 65,
	},
	{
		name: "option-datatype",
		src: `
type 'a opt = None | Some of 'a
let get d o = match o with | None -> d | Some v -> v
let rec find p xs =
  match xs with
  | [] -> None
  | x :: r -> if p x then Some x else find p r
let main () =
  get 0 (find (fun x -> x > 25) [10; 20; 30; 40]) + get 99 (find (fun x -> x > 100) [1])
`,
		want: 129,
	},
	{
		name: "expr-interpreter",
		src: `
type expr = Num of int | Add of expr * expr | Mul of expr * expr | Neg of expr
let rec eval e =
  match e with
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Mul (a, b) -> eval a * eval b
  | Neg a -> 0 - eval a
let main () = eval (Add (Mul (Num 3, Num 4), Neg (Add (Num 1, Num 2))))
`,
		want: 9,
	},
	{
		name: "phantom-thunk-reps",
		src: `
let make_thunk x =
  let th = fun () -> (let _ = [x; x] in 42) in
  th
let main () =
  let t1 = make_thunk 5 in
  let t2 = make_thunk true in
  t1 () + t2 ()
`,
		want: 84,
	},
	{
		name: "church-like-stress",
		src: `
let rec iterate n f x = if n = 0 then x else iterate (n - 1) f (f x)
let main () = iterate 50 (fun x -> x + 2) 0
`,
		want: 100,
	},
	{
		name: "print-output",
		src: `
let main () =
  print_string "sum=";
  print_int (1 + 2);
  print_newline ();
  print_bool true;
  0
`,
		want:   0,
		output: "sum=3\ntrue",
	},
	{
		name: "deep-recursion-lists",
		src: `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let main () = sum (upto 300)
`,
		want:    45150,
		minHeap: 4096,
	},
	{
		name: "tuple-nesting",
		src: `
let main () =
  let p = ((1, 2), (3, (4, 5))) in
  match p with
  | ((a, b), (c, (d, e))) -> a + b * 10 + c * 100 + d * 1000 + e * 10000
`,
		want: 54321,
	},
	{
		name: "seq-and-unit",
		src: `
let r = ref 10
let bump n = r := !r + n
let main () =
  bump 1; bump 2; bump 3; !r
`,
		want: 16,
	},
	{
		name: "shadowing",
		src: `
let x = 1
let main () =
  let x = x + 10 in
  let x = x * 2 in
  x
`,
		want: 22,
	},
	{
		name: "list-of-closures-gc",
		src: `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec apply_each fs x = match fs with | [] -> x | f :: r -> apply_each r (f x)
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let main () =
  let fs = map (fun k -> fun x -> x + k) (upto 30) in
  apply_each fs 0
`,
		want:    465,
		minHeap: 2048,
	},
}

func TestAllStrategiesAgree(t *testing.T) {
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, strat := range Strategies {
				heapWords := 512
				if tc.minHeap > heapWords {
					heapWords = tc.minHeap
				}
				res, err := Run(tc.src, Options{
					Strategy:  strat,
					HeapWords: heapWords,
					MaxSteps:  50_000_000,
				})
				if err != nil {
					t.Fatalf("[%v] run: %v", strat, err)
				}
				if res.Value != tc.want {
					t.Errorf("[%v] result = %d, want %d", strat, res.Value, tc.want)
				}
				if tc.output != "" && res.Output != tc.output {
					t.Errorf("[%v] output = %q, want %q", strat, res.Output, tc.output)
				}
			}
		})
	}
}

// TestCollectionsActuallyHappen guards against a quietly oversized heap
// making the battery vacuous.
func TestCollectionsActuallyHappen(t *testing.T) {
	// Bounded recursion depth (so even the trace-everything Appel mode
	// fits) but large cumulative allocation, forcing several collections
	// under every strategy.
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec once n acc = if n = 0 then acc else once (n - 1) (acc + sum (upto 20))
let rec outer k acc = if k = 0 then acc else outer (k - 1) (acc + once 25 0)
let main () = outer 20 0
`
	for _, strat := range Strategies {
		res, err := Run(src, Options{Strategy: strat, HeapWords: 4096})
		if err != nil {
			t.Fatalf("[%v] run: %v", strat, err)
		}
		if res.HeapStats.Collections == 0 {
			t.Errorf("[%v] no collections happened; the test heap is too large", strat)
		}
		if want := int64(20 * 25 * 210); res.Value != want {
			t.Errorf("[%v] result = %d, want %d", strat, res.Value, want)
		}
	}
}

func TestHeapExhaustionReported(t *testing.T) {
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec length xs = match xs with | [] -> 0 | _ :: r -> 1 + length r
let main () = length (upto 10000)
`
	_, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 256})
	if err == nil {
		t.Fatal("expected heap exhaustion")
	}
	if !strings.Contains(err.Error(), "heap exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestParallelismValidated pins that collection is sequential: 0 and 1
// run, and any other Parallelism is rejected on both execution paths.
func TestParallelismValidated(t *testing.T) {
	for _, par := range []int{0, 1} {
		if _, err := Run(`let main () = 7`, Options{Parallelism: par}); err != nil {
			t.Errorf("Parallelism %d rejected: %v", par, err)
		}
	}
	for _, par := range []int{-1, 2, 4} {
		if _, err := Run(`let main () = 7`, Options{Parallelism: par}); err == nil {
			t.Errorf("Run accepted Parallelism %d", par)
		}
		if _, _, err := BuildTaskGroup(`let task_a () = 7`, []string{"task_a"}, Options{Parallelism: par}); err == nil {
			t.Errorf("BuildTaskGroup accepted Parallelism %d", par)
		}
	}
}

func TestMatchFailureReported(t *testing.T) {
	src := `
let head xs = match xs with | x :: _ -> x
let main () = head []
`
	_, err := Run(src, Options{Strategy: gc.StratCompiled})
	if err == nil || !strings.Contains(err.Error(), "match failure") {
		t.Fatalf("expected match failure, got %v", err)
	}
}

func TestTaggedIntWidth(t *testing.T) {
	// Tag-free integers use the full 64-bit word; tagged integers lose one
	// bit and wrap at 63 (the paper's "larger integers can be represented
	// without multi-word representations" claim).
	src := `
let main () =
  let big = 4611686018427387903 in
  big + big
`
	free, err := Run(src, Options{Strategy: gc.StratCompiled})
	if err != nil {
		t.Fatalf("tagfree: %v", err)
	}
	tagged, err := Run(src, Options{Strategy: gc.StratTagged})
	if err != nil {
		t.Fatalf("tagged: %v", err)
	}
	want := int64(4611686018427387903) * 2
	if free.Value != want {
		t.Errorf("tag-free: %d, want %d", free.Value, want)
	}
	if tagged.Value == want {
		t.Errorf("tagged 63-bit arithmetic should wrap for this value; got exact %d", tagged.Value)
	}
}

func TestGCWordElisionStats(t *testing.T) {
	src := `
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
let main () = fib 15
`
	res, err := Run(src, Options{Strategy: gc.StratCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anal.DirectCallSites == 0 {
		t.Fatal("no direct call sites counted")
	}
	// fib never allocates: every one of its call sites should lose its
	// gc_word (§5.1).
	if res.Anal.ElidedSites == 0 {
		t.Errorf("fib call sites should be proven GC-free; stats: %+v", res.Anal)
	}
}

func TestLivenessAblationRetainsMore(t *testing.T) {
	// With liveness disabled, dead slots stay in frame maps and the
	// collector retains more (the §5.2 claim, experiment E3).
	src := `
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let rec once n acc = if n = 0 then acc else once (n - 1) (acc + sum (upto 20))
let rec outer k acc = if k = 0 then acc else outer (k - 1) (acc + once 10 0)
let consume () =
  let big = upto 400 in
  let s = sum big in
  s + outer 50 0
let main () = consume ()
`
	precise, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 2048})
	if err != nil {
		t.Fatalf("precise: %v", err)
	}
	sloppy, err := Run(src, Options{Strategy: gc.StratCompiled, HeapWords: 2048, DisableLiveness: true})
	if err != nil {
		t.Fatalf("no-liveness: %v", err)
	}
	if precise.Value != sloppy.Value {
		t.Fatalf("ablation changed the result: %d vs %d", precise.Value, sloppy.Value)
	}
	if sloppy.HeapStats.WordsCopied <= precise.HeapStats.WordsCopied {
		t.Errorf("liveness should reduce copied words: precise=%d no-liveness=%d",
			precise.HeapStats.WordsCopied, sloppy.HeapStats.WordsCopied)
	}
}

// TestRecursivePolymorphicTraceSoundness is the regression test for the
// identity-instantiation bug: deep recursive polymorphic frames hold
// pending heap results that the collector must trace via type arguments
// passed to every recursive frame. Mark/sweep exposes a miss immediately
// (freed blocks are reused); copying can mask it for one collection.
func TestRecursivePolymorphicTraceSoundness(t *testing.T) {
	src := `
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec foldl f acc xs = match xs with | [] -> acc | x :: r -> foldl f (f acc x) r
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let round () =
  let ints = map (fun x -> x * 3) (upto 20) in
  let nested = map (fun x -> [x; x]) (upto 6) in
  foldl (fun a b -> a + b) 0 ints
    + foldl (fun a l -> a + (match l with | x :: _ -> x | [] -> 0)) 0 nested
let rec loop n acc = if n = 0 then acc else loop (n - 1) (acc + round ())
let main () = loop 6 0
`
	const want = 6 * (630 + 21)
	for _, ms := range []bool{false, true} {
		for _, strat := range []gc.Strategy{gc.StratCompiled, gc.StratInterp, gc.StratAppel} {
			res, err := Run(src, Options{Strategy: strat, HeapWords: 1024, MarkSweep: ms})
			if err != nil {
				t.Fatalf("[%v ms=%v] %v", strat, ms, err)
			}
			if res.Value != want {
				t.Errorf("[%v ms=%v] = %d, want %d", strat, ms, res.Value, want)
			}
		}
	}
}

// TestRepNeedingFunctionThroughAliasAndValue exercises the rep-passing
// machinery through indirections: a phantom-closure-creating function
// called directly, through a local alias, and as a first-class value.
func TestRepNeedingFunctionThroughAliasAndValue(t *testing.T) {
	src := `
let make_thunk x =
  let th = fun () -> (let _ = [x; x] in 1) in
  th
let rec map f xs = match xs with | [] -> [] | x :: r -> f x :: map f r
let rec total ts = match ts with | [] -> 0 | t :: r -> t () + total r
let blip n = (let _ = [n; n] in 0)
let rec churn n = if n = 0 then 0 else blip n + churn (n - 1)
let main () =
  let alias = make_thunk in
  let t1 = alias (1, 2) in
  let t2 = make_thunk true in
  let many = map make_thunk [10; 20; 30] in
  let _ = churn 200 in
  t1 () + t2 () + total many
`
	for _, strat := range Strategies {
		for _, ms := range []bool{false, true} {
			if ms && strat == gc.StratTagged {
				continue
			}
			res, err := Run(src, Options{Strategy: strat, HeapWords: 512, MarkSweep: ms})
			if err != nil {
				t.Fatalf("[%v ms=%v] %v", strat, ms, err)
			}
			if res.Value != 5 {
				t.Errorf("[%v ms=%v] = %d, want 5", strat, ms, res.Value)
			}
			if !ms && res.HeapStats.Collections == 0 {
				t.Errorf("[%v] expected collections at this heap size", strat)
			}
		}
	}
}

package main

// Seeded MinML program generation. Every program is assembled from
// templates; each template pairs a MinML source fragment with a Go
// reference that computes the fragment's value independently of the
// compiler under test. The templates are the corpus programs of
// internal/workloads with their sizes turned into parameters, so at the
// corpus parameters each reference must reproduce the corpus Expect
// (checked by selfCheck).

import (
	"fmt"
	"strings"
)

// rng is splitmix64: a stable, seedable generator whose sequence does not
// depend on the Go release, so a seed names the same programs everywhere.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int {
	return lo + int(r.next()%uint64(hi-lo+1))
}

func uptoRef(n int) []int64 {
	xs := make([]int64, 0, n)
	for ; n > 0; n-- {
		xs = append(xs, int64(n))
	}
	return xs
}

func sumRef(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// lit renders an integer as a MinML expression (MinML has no negative
// literals).
func lit(v int) string {
	if v < 0 {
		return fmt.Sprintf("(0 - %d)", -v)
	}
	return fmt.Sprint(v)
}

// expand substitutes the per-instance name prefixes: {p} for values and
// types, {P} for constructors (which must start with a capital).
func expand(src, prefix string) string {
	return strings.NewReplacer("{p}", prefix+"_", "{P}", strings.ToUpper(prefix[:1])+prefix[1:]).Replace(src)
}

// template is one parameterised single-task program fragment. It declares
// {p}run : unit -> int; the last parameter is always the repeat count.
type template struct {
	name string
	// corpus holds the parameters at which the fragment is the
	// internal/workloads program of the same name.
	corpus []int
	// funcs is the number of top-level functions the fragment declares.
	funcs int
	// draw picks seed-shaped size parameters (everything but the repeat
	// count); small selects the sizes used inside short programs.
	draw func(r *rng, small bool) []int
	// round is the Go reference for one repetition: its value and its
	// approximate cost in MinML calls, used to scale repeat counts.
	round func(a []int) (value, calls int64)
	src   func(a []int) string
}

// ref is the template's expected {p}run result.
func (t *template) ref(a []int) int64 {
	v, _ := t.round(a)
	return v * int64(a[len(a)-1])
}

var templates = []*template{tmplTak, tmplFib, tmplListchurn, tmplEvaluator, tmplCPS,
	tmplPolypipe, tmplClosures, tmplMutate, tmplDeeppoly, tmplBtree, tmplThunks}

// takRef is Takeuchi's function and the number of calls it makes.
func takRef(x, y, z int) (value, calls int64) {
	var tak func(x, y, z int64) int64
	tak = func(x, y, z int64) int64 {
		calls++
		if y >= x {
			return z
		}
		return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
	}
	return tak(int64(x), int64(y), int64(z)), calls
}

// takArgs lists the tak argument triples costing 1.5k-4k calls.
var takArgs = func() [][3]int {
	var out [][3]int
	for x := 12; x <= 18; x++ {
		for y := x - 8; y <= x-2; y++ {
			for z := max(y-8, 0); z <= y-2; z++ {
				if c := takCost(x, y, z, 4000); c >= 1500 && c <= 4000 {
					out = append(out, [3]int{x, y, z})
				}
			}
		}
	}
	return out
}()

// takCost counts tak's calls, giving up (returning limit+1) past limit.
func takCost(x, y, z int, limit int64) int64 {
	var calls int64
	var tak func(x, y, z int) int
	tak = func(x, y, z int) int {
		calls++
		if calls > limit || y >= x {
			return z
		}
		return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
	}
	tak(x, y, z)
	return min(calls, limit+1)
}

var tmplTak = &template{
	name: "tak", corpus: []int{18, 12, 6, 1}, funcs: 3,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(6, 9), 4, 2}
		}
		// The cost swings by orders of magnitude with the argument gaps,
		// so draw among the triples of moderate cost.
		return append([]int(nil), takArgs[r.between(0, len(takArgs)-1)][:]...)
	},
	round: func(a []int) (int64, int64) { return takRef(a[0], a[1], a[2]) },
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}tak x y z =
  if y >= x then z
  else {p}tak ({p}tak (x - 1) y z) ({p}tak (y - 1) z x) ({p}tak (z - 1) x y)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}tak %d %d %d)
let {p}run () = {p}loop %d 0
`, a[0], a[1], a[2], a[3])
	},
}

var tmplFib = &template{
	name: "fib", corpus: []int{22, 1}, funcs: 3,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(6, 10)}
		}
		return []int{r.between(13, 16)}
	},
	round: func(a []int) (int64, int64) {
		var calls int64
		var fib func(n int64) int64
		fib = func(n int64) int64 {
			calls++
			if n < 2 {
				return n
			}
			return fib(n-1) + fib(n-2)
		}
		return fib(int64(a[0])), calls
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}fib n = if n < 2 then n else {p}fib (n - 1) + {p}fib (n - 2)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}fib %d)
let {p}run () = {p}loop %d 0
`, a[0], a[1])
	},
}

var tmplListchurn = &template{
	name: "listchurn", corpus: []int{40, 50, 30}, funcs: 7,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(3, 12), r.between(3, 12)}
		}
		return []int{r.between(15, 40), r.between(15, 40)}
	},
	round: func(a []int) (int64, int64) {
		xs := append(uptoRef(a[0]), uptoRef(a[1])...)
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		// Two uptos, an append, a quadratic rev-by-append and a sum.
		n := int64(len(xs))
		return sumRef(xs), 3*n + int64(a[0]) + n*(n+1)/2 + 6
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}append xs ys = match xs with | [] -> ys | x :: r -> x :: {p}append r ys
let rec {p}rev xs = match xs with | [] -> [] | x :: r -> {p}append ({p}rev r) [x]
let rec {p}upto n = if n = 0 then [] else n :: {p}upto (n - 1)
let rec {p}sum xs = match xs with | [] -> 0 | x :: r -> x + {p}sum r
let {p}round () = {p}sum ({p}rev ({p}append ({p}upto %d) ({p}upto %d)))
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1], a[2])
	},
}

// evaluator parameters: depth, multiplier, IfPos condition, Neg operand.
var tmplEvaluator = &template{
	name: "evaluator", corpus: []int{6, 2, 1, 5, 100}, funcs: 5,
	draw: func(r *rng, small bool) []int {
		d := r.between(5, 7)
		if small {
			d = r.between(1, 3)
		}
		c := 1
		if r.between(0, 2) == 0 {
			c = -1
		}
		return []int{d, r.between(1, 3), c, r.between(1, 9)}
	},
	round: func(a []int) (int64, int64) {
		type expr struct {
			op      byte // 'n' num, '+', '*', '-' neg, '?' ifpos
			n       int64
			a, b, c *expr
		}
		var calls int64
		var grow func(d int) *expr
		grow = func(d int) *expr {
			calls++
			if d == 0 {
				return &expr{op: 'n', n: 1}
			}
			return &expr{op: '+',
				a: &expr{op: '*', a: &expr{op: 'n', n: int64(a[1])}, b: grow(d - 1)},
				b: &expr{op: '?', a: &expr{op: 'n', n: int64(a[2])}, b: grow(d - 1),
					c: &expr{op: '-', a: &expr{op: 'n', n: int64(a[3])}}}}
		}
		var eval func(e *expr) int64
		eval = func(e *expr) int64 {
			calls++
			switch e.op {
			case 'n':
				return e.n
			case '+':
				return eval(e.a) + eval(e.b)
			case '*':
				return eval(e.a) * eval(e.b)
			case '-':
				return 0 - eval(e.a)
			}
			if eval(e.a) > 0 {
				return eval(e.b)
			}
			return eval(e.c)
		}
		return eval(grow(a[0])), calls
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
type {p}expr =
  | {P}Num of int
  | {P}Add of {p}expr * {p}expr
  | {P}Mul of {p}expr * {p}expr
  | {P}Neg of {p}expr
  | {P}IfPos of {p}expr * {p}expr * {p}expr
let rec {p}eval e =
  match e with
  | {P}Num n -> n
  | {P}Add (a, b) -> {p}eval a + {p}eval b
  | {P}Mul (a, b) -> {p}eval a * {p}eval b
  | {P}Neg a -> 0 - {p}eval a
  | {P}IfPos (c, t, f) -> if {p}eval c > 0 then {p}eval t else {p}eval f
let rec {p}grow d =
  if d = 0 then {P}Num 1
  else {P}Add ({P}Mul ({P}Num %s, {p}grow (d - 1)), {P}IfPos ({P}Num %s, {p}grow (d - 1), {P}Neg ({P}Num %s)))
let {p}round () = {p}eval ({p}grow %d)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, lit(a[1]), lit(a[2]), lit(a[3]), a[0], a[4])
	},
}

var tmplCPS = &template{
	name: "cps", corpus: []int{30, 40}, funcs: 5,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(3, 15)}
		}
		return []int{r.between(20, 45)}
	},
	round: func(a []int) (int64, int64) {
		// Each element costs an upto call, a sumk call and a continuation
		// call.
		n := int64(a[0])
		return n * (n + 1) / 2, 3*n + 4
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}upto n = if n = 0 then [] else n :: {p}upto (n - 1)
let rec {p}sumk xs k =
  match xs with
  | [] -> k 0
  | x :: r -> {p}sumk r (fun s -> k (x + s))
let {p}round () = {p}sumk ({p}upto %d) (fun s -> s)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1])
	},
}

// polypipe parameters: the lengths of the int, pair, bool and nested-list
// pipelines, each a separate instantiation of the polymorphic map/foldl.
var tmplPolypipe = &template{
	name: "polypipe", corpus: []int{20, 10, 8, 6, 9}, funcs: 7,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(2, 8), r.between(2, 8), r.between(2, 8), r.between(2, 8)}
		}
		return []int{r.between(15, 30), r.between(8, 16), r.between(6, 12), r.between(4, 10)}
	},
	round: func(a []int) (int64, int64) {
		var v int64
		for x := int64(1); x <= int64(a[0]); x++ {
			v += 3 * x
		}
		for x := int64(1); x <= int64(a[1]); x++ {
			v += x + x*x
		}
		for x := int64(1); x <= int64(a[2]); x++ {
			if x%2 == 0 {
				v++
			}
		}
		for x := int64(1); x <= int64(a[3]); x++ {
			v += x
		}
		n := int64(a[0] + a[1] + a[2] + a[3])
		return v, 4*n + 12
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}map f xs = match xs with | [] -> [] | x :: r -> f x :: {p}map f r
let rec {p}foldl f acc xs = match xs with | [] -> acc | x :: r -> {p}foldl f (f acc x) r
let rec {p}upto n = if n = 0 then [] else n :: {p}upto (n - 1)
let rec {p}zipsum ps = match ps with | [] -> 0 | (a, b) :: r -> a + b + {p}zipsum r
let {p}round () =
  let ints = {p}map (fun x -> x * 3) ({p}upto %d) in
  let pairs = {p}map (fun x -> (x, x * x)) ({p}upto %d) in
  let flags = {p}map (fun x -> x mod 2 = 0) ({p}upto %d) in
  let nested = {p}map (fun x -> [x; x]) ({p}upto %d) in
  {p}foldl (fun a b -> a + b) 0 ints
    + {p}zipsum pairs
    + {p}foldl (fun a b -> if b then a + 1 else a) 0 flags
    + {p}foldl (fun a l -> a + (match l with | x :: _ -> x | [] -> 0)) 0 nested
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1], a[2], a[3], a[4])
	},
}

// closures parameters: the number of escaping partial applications and
// the seed the composed closure is applied to.
var tmplClosures = &template{
	name: "closures", corpus: []int{20, 10, 75}, funcs: 8,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(2, 8), r.between(0, 20)}
		}
		return []int{r.between(12, 30), r.between(0, 20)}
	},
	round: func(a []int) (int64, int64) {
		m, x := int64(a[0]), int64(a[1])
		return (x+1)*2 + m*(m+1)/2, 4*m + 8
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let {p}add a b = a + b
let {p}compose f g = fun x -> f (g x)
let rec {p}map f xs = match xs with | [] -> [] | x :: r -> f x :: {p}map f r
let rec {p}upto n = if n = 0 then [] else n :: {p}upto (n - 1)
let rec {p}apply_all fs x = match fs with | [] -> x | f :: r -> {p}apply_all r (f x)
let {p}round () =
  let adders = {p}map {p}add ({p}upto %d) in
  let doubled = {p}compose (fun x -> x * 2) (fun x -> x + 1) in
  {p}apply_all adders (doubled %d)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1], a[2])
	},
}

var tmplMutate = &template{
	name: "mutate", corpus: []int{25, 98}, funcs: 5,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(3, 12)}
		}
		return []int{r.between(15, 40)}
	},
	round: func(a []int) (int64, int64) {
		n := int64(a[0])
		return n * (n + 1) / 2, 3*n + 4
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let rec {p}upto n = if n = 0 then [] else n :: {p}upto (n - 1)
let rec {p}each f xs = match xs with | [] -> () | x :: r -> (let _ = f x in {p}each f r)
let {p}round () =
  let acc = ref 0 in
  let bump x = acc := !acc + x in
  {p}each bump ({p}upto %d);
  !acc
let rec {p}loop n t = if n = 0 then t else {p}loop (n - 1) (t + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1])
	},
}

// deeppoly: recursion as deep as its parameter through a polymorphic
// frame that holds an 'a value live, instantiated at a pair and a list.
var tmplDeeppoly = &template{
	name: "deeppoly", corpus: []int{175, 1}, funcs: 4,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(5, 30)}
		}
		return []int{r.between(120, 400)}
	},
	round: func(a []int) (int64, int64) {
		d := int64(a[0])
		return 2 * d, 4*d + 4
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let {p}probe x = (let _ = [x; x] in 1)
let rec {p}pdepth x acc n =
  if n = 0 then acc
  else {p}probe x + {p}pdepth x acc (n - 1)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}pdepth (1, true) 0 %d + {p}pdepth [1] 0 %d)
let {p}run () = {p}loop %d 0
`, a[0], a[0], a[1])
	},
}

var tmplBtree = &template{
	name: "btree", corpus: []int{7, 50}, funcs: 5,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(1, 4)}
		}
		return []int{r.between(5, 9)}
	},
	round: func(a []int) (int64, int64) {
		var sum func(d int64) int64
		sum = func(d int64) int64 {
			if d == 0 {
				return 0
			}
			return 2*sum(d-1) + d
		}
		nodes := int64(1)<<a[0] - 1
		return sum(int64(a[0])), 4*nodes + 4
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
type {p}tree = {P}Leaf | {P}Node of {p}tree * int * {p}tree
let rec {p}build d = if d = 0 then {P}Leaf else {P}Node ({p}build (d - 1), d, {p}build (d - 1))
let rec {p}tsum t = match t with | {P}Leaf -> 0 | {P}Node (l, v, r) -> {p}tsum l + v + {p}tsum r
let {p}round () = {p}tsum ({p}build %d)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1])
	},
}

// thunks: escaping closures over a polymorphic capture, which need
// runtime type representations in their environments.
var tmplThunks = &template{
	name: "thunks", corpus: []int{10, 30}, funcs: 6,
	draw: func(r *rng, small bool) []int {
		if small {
			return []int{r.between(2, 8)}
		}
		return []int{r.between(8, 24)}
	},
	round: func(a []int) (int64, int64) {
		n := int64(a[0])
		return 42 * n, 4*n + 4
	},
	src: func(a []int) string {
		return fmt.Sprintf(`
let {p}make_thunk x =
  let th = fun () -> (let _ = [x; x] in 42) in
  th
let rec {p}apply_thunks ts = match ts with | [] -> 0 | t :: r -> t () + {p}apply_thunks r
let rec {p}mk n = if n = 0 then [] else {p}make_thunk (n, n) :: {p}mk (n - 1)
let {p}round () = {p}apply_thunks ({p}mk %d)
let rec {p}loop n acc = if n = 0 then acc else {p}loop (n - 1) (acc + {p}round ())
let {p}run () = {p}loop %d 0
`, a[0], a[1])
	},
}

// unit is one instantiated fragment inside a program: its declarations,
// ending with {prefix}_run, and that function's expected value.
type unit struct {
	prefix string
	defs   string
	funcs  int
	want   int64
}

// instantiate scales a template's repeat count so the unit costs about
// `calls` MinML calls (the nearest count, at least one).
func instantiate(t *template, prefix string, sizes []int, calls int64) unit {
	v, per := t.round(sizes)
	reps := (calls + per/2) / per
	if reps < 1 {
		reps = 1
	}
	args := append(append([]int(nil), sizes...), int(reps))
	return unit{prefix: prefix, defs: expand(t.src(args), prefix), funcs: t.funcs, want: v * reps}
}

// mix folds a unit value into main's result; mixRef mirrors it.
const mixDecl = "let mix h v = (h * 31 + v) mod 1000000007\n"

func mixRef(h, v int64) int64 { return (h*31 + v) % 1000000007 }

// assemble writes a single-task program whose main prints every unit's
// value on its own line and returns their mix. With keep > 0, main first
// builds the long-lived list of keep elements and prints and mixes its
// checksum after the last unit.
func assemble(units []unit, keep int) job {
	var b, mainB, out strings.Builder
	b.WriteString(mixDecl)
	var s job
	mainB.WriteString("let main () =\n  let h = 0 in\n")
	if keep > 0 {
		b.WriteString(keepDecl)
		fmt.Fprintf(&mainB, "  let keep = k_mk %d in\n", keep)
	}
	for _, u := range units {
		b.WriteString(u.defs)
		fmt.Fprintf(&mainB, "  let v = %s_run () in\n  print_int v; print_newline ();\n  let h = mix h v in\n", u.prefix)
		fmt.Fprintf(&out, "%d\n", u.want)
		s.want = mixRef(s.want, u.want)
	}
	if keep > 0 {
		// k_sum adds the first and last field of each record (n, ..., n): 2n.
		v := int64(keep) * int64(keep+1)
		mainB.WriteString("  let v = k_sum keep in\n  print_int v; print_newline ();\n  let h = mix h v in\n")
		fmt.Fprintf(&out, "%d\n", v)
		s.want = mixRef(s.want, v)
	}
	mainB.WriteString("  h\n")
	b.WriteString(mainB.String())
	s.src, s.wantOut = b.String(), out.String()
	return s
}

// computeCallsPerUnit is the MinML call budget of each compute unit; the
// eleven units of a compute program run about 4e5 calls (4e6 VM
// instructions) together.
const computeCallsPerUnit = 36_000

// Every compute program also holds a long-lived list of about
// computeKeepLen records — eight-int tuples, ten words per element with
// the cons cell — across all its units, so each collection traces a real
// resident set and the peak live size does not hinge on which unit a
// collection happens to hit. Wide records keep the object count, which
// dominates trace time, low.
const computeKeepLen = 400

const keepDecl = `
let rec k_mk n = if n = 0 then [] else (n, n, n, n, n, n, n, n) :: k_mk (n - 1)
let rec k_sum rs = match rs with | [] -> 0 | (a, _, _, _, _, _, _, h) :: r -> a + h + k_sum r
`

// genCompute builds one compute program: every template once, sizes drawn
// from the seed, repeat counts scaled so each unit costs about the same.
func genCompute(r *rng) job {
	keep := r.between(computeKeepLen*9/10, computeKeepLen*11/10)
	units := make([]unit, len(templates))
	for i, t := range templates {
		units[i] = instantiate(t, fmt.Sprintf("c%d", i), t.draw(r, false), computeCallsPerUnit)
	}
	return assemble(units, keep)
}

// Short programs: hundreds of small functions with a brief main, plus a
// churn loop sized so the default 64k-word heap collects a few times.
const (
	shortMinFuncs = 380
	shortMaxFuncs = 420
	shortChurn    = 700
)

var shortChurnUnit = unit{prefix: "z", funcs: 4, want: 5050 * shortChurn,
	defs: fmt.Sprintf(`
let rec z_upto n = if n = 0 then [] else n :: z_upto (n - 1)
let rec z_sum xs = match xs with | [] -> 0 | x :: r -> x + z_sum r
let rec z_spin n acc = if n = 0 then acc else z_spin (n - 1) (acc + z_sum (z_upto 100))
let z_run () = z_spin %d 0
`, shortChurn)}

// genShort builds one short program: randomly chosen templates at small
// sizes, one repetition each, until the function count reaches a
// seed-drawn target.
func genShort(r *rng) job {
	target := r.between(shortMinFuncs, shortMaxFuncs)
	units := []unit{shortChurnUnit}
	funcs := 2 + shortChurnUnit.funcs
	for i := 0; funcs < target; i++ {
		t := templates[r.between(0, len(templates)-1)]
		units = append(units, instantiate(t, fmt.Sprintf("s%d", i), t.draw(r, true), 0))
		funcs += t.funcs
	}
	return assemble(units, 0)
}

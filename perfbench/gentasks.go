package main

import (
	"fmt"
	"strings"
)

// Task programs: a few dozen tasks over one shared heap. Every task holds a
// long-lived, seed-shaped structure live across its whole run — through the
// polymorphic frame `hold`, whose type_gc routine the collector takes from
// the caller — while churning short-lived lists, so collections copy a
// high-survival heap through deep task stacks.
const taskDefs = `
type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let rec sum xs = match xs with | [] -> 0 | x :: r -> x + sum r
let churn k = sum (upto k)
let rec hold x measure k n acc =
  if n = 0 then acc + measure x
  else hold x measure k (n - 1) (acc + churn k)
let rec build d mk = if d = 0 then Leaf else Node (build (d - 1) mk, mk d, build (d - 1) mk)
let rec tfold f t = match t with | Leaf -> 0 | Node (l, v, r) -> tfold f l + f v + tfold f r
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec mkpairs n f = if n = 0 then [] else (n, f n) :: mkpairs (n - 1) f
let rec fsum ps = match ps with | [] -> 0 | (a, _) :: r -> a + fsum r
let rec chain n f = if n = 0 then f else chain (n - 1) (fun x -> f (x + n))
let rec mkcells n = if n = 0 then [] else ref [n] :: mkcells (n - 1)
let rec refresh cells k =
  match cells with
  | [] -> 0
  | c :: r -> (let _ = (c := upto k) in 1 + refresh r k)
let rec harvest cells = match cells with | [] -> 0 | c :: r -> sum (!c) + harvest r
let rec cycle cells k n acc =
  if n = 0 then acc
  else (let _ = refresh cells k in cycle cells k (n - 1) (acc + harvest cells))
`

// holdRef mirrors `hold`: n churn rounds of k, then the structure's measure.
func holdRef(measure int64, k, n int, acc int64) int64 {
	return acc + int64(n)*sumRef(uptoRef(k)) + measure
}

// cycleRef mirrors `cycle` over `cells` ref cells.
func cycleRef(cells, k, n int, acc int64) int64 {
	return acc + int64(n)*int64(cells)*sumRef(uptoRef(k))
}

// treeRef mirrors `tfold f (build d mk)` with f∘mk given as one function.
func treeRef(d int, payload func(int) int64) int64 {
	if d == 0 {
		return 0
	}
	return 2*treeRef(d-1, payload) + payload(d)
}

// taskKind is one seed-shaped long-lived structure. size is the kind's
// size parameter for a target of about `words` live heap words.
type taskKind struct {
	name string
	// size converts a live-word target into the kind's size parameter.
	size func(words int) int
	// words estimates the structure's live heap words (tag-free objects are
	// exactly their fields: a cons cell, a pair and a closure of two
	// captures are 2, 2 and 3 words).
	words func(size int) int
	// expr is the structure-holding body; measure is its value.
	expr    func(size, k, n int, acc int64) string
	measure func(size int) int64
	// cycles marks the ref-cell kind, which churns by repointing its
	// cells (cycle) rather than through hold.
	cycles bool
}

func depthFor(words, perNode int) int {
	d := 1
	for (1<<(d+1)-1)*perNode <= words {
		d++
	}
	return d
}

var taskKinds = []taskKind{
	{name: "tree-int",
		size:  func(w int) int { return depthFor(w, 3) },
		words: func(d int) int { return (1<<d - 1) * 3 },
		expr: func(d, k, n int, acc int64) string {
			return fmt.Sprintf("hold (build %d (fun d -> d)) (tfold (fun v -> v)) %d %d %d", d, k, n, acc)
		},
		measure: func(d int) int64 { return treeRef(d, func(x int) int64 { return int64(x) }) }},
	{name: "tree-list",
		size:  func(w int) int { return depthFor(w, 7) },
		words: func(d int) int { return (1<<d - 1) * 7 },
		expr: func(d, k, n int, acc int64) string {
			return fmt.Sprintf("hold (build %d (fun d -> [d; d + 1])) (tfold sum) %d %d %d", d, k, n, acc)
		},
		measure: func(d int) int64 { return treeRef(d, func(x int) int64 { return int64(2*x + 1) }) }},
	{name: "pairs-int",
		size:  func(w int) int { return max(1, w/4) },
		words: func(l int) int { return 4 * l },
		expr: func(l, k, n int, acc int64) string {
			return fmt.Sprintf("hold (mkpairs %d (fun n -> n * 2)) (fun ps -> fsum ps + len ps) %d %d %d", l, k, n, acc)
		},
		measure: func(l int) int64 { return int64(l*(l+1)/2 + l) }},
	{name: "pairs-bool",
		size:  func(w int) int { return max(1, w/4) },
		words: func(l int) int { return 4 * l },
		expr: func(l, k, n int, acc int64) string {
			return fmt.Sprintf("hold (mkpairs %d (fun n -> n mod 3 = 0)) (fun ps -> fsum ps + len ps) %d %d %d", l, k, n, acc)
		},
		measure: func(l int) int64 { return int64(l*(l+1)/2 + l) }},
	{name: "pairs-list",
		size:  func(w int) int { return max(1, w/6) },
		words: func(l int) int { return 6 * l },
		expr: func(l, k, n int, acc int64) string {
			return fmt.Sprintf("hold (mkpairs %d (fun n -> [n])) (fun ps -> fsum ps + len ps) %d %d %d", l, k, n, acc)
		},
		measure: func(l int) int64 { return int64(l*(l+1)/2 + l) }},
	{name: "chain",
		size:  func(w int) int { return max(1, w/3) },
		words: func(l int) int { return 3 * l },
		expr: func(l, k, n int, acc int64) string {
			return fmt.Sprintf("hold (chain %d (fun x -> x)) (fun g -> g 1) %d %d %d", l, k, n, acc)
		},
		measure: func(l int) int64 { return int64(1 + l*(l+1)/2) }},
	{name: "cells", cycles: true,
		// Each cell is a ref, its spine cons and a list of cellLen conses.
		size:  func(w int) int { return max(1, w/(3+2*cellLen)) },
		words: func(m int) int { return m * (3 + 2*cellLen) },
		expr: func(m, _, n int, acc int64) string {
			return fmt.Sprintf("cycle (mkcells %d) %d %d %d", m, cellLen, n, acc)
		}},
}

// cellLen is the length of the fresh list each ref cell is repointed at.
const cellLen = 12

// Task program sizing. The live set is split among the tasks; the churn
// budget is split likewise, so a program's total work and live set stay
// near these figures whatever the seed draws per task.
const (
	tasksMin, tasksMax = 32, 35
	taskLiveWords      = 16_000
	taskCalls          = 240_000
	// taskHeapFactor sizes the semispace as a multiple of the estimated
	// live set (structures plus each task's in-flight churn list).
	taskHeapFactor = 1.5
)

func genTasks(r *rng) job {
	n := r.between(tasksMin, tasksMax)
	var b strings.Builder
	b.WriteString(taskDefs)
	var p job
	live := 0
	for i := 0; i < n; i++ {
		kind := taskKinds[r.between(0, len(taskKinds)-1)]
		// Per-task shares vary ±50% around the even split.
		words := taskLiveWords / n * r.between(50, 150) / 100
		calls := taskCalls / n * r.between(50, 150) / 100
		k := r.between(15, 40)
		size := kind.size(words)
		acc := int64(r.between(0, 9999))
		var rounds int
		var want int64
		if kind.cycles {
			// A cycle round refreshes and harvests every cell.
			rounds = max(1, calls/(size*(2*cellLen+5)))
			want = cycleRef(size, cellLen, rounds, acc)
		} else {
			rounds = max(1, calls/(2*k+4))
			want = holdRef(kind.measure(size), k, rounds, acc)
		}
		name := fmt.Sprintf("t%d", i)
		fmt.Fprintf(&b, "let %s () = %s\n", name, kind.expr(size, k, rounds, acc))
		p.entries = append(p.entries, name)
		p.wantTasks = append(p.wantTasks, want)
		live += kind.words(size) + 2*max(k, cellLen)
	}
	p.src = b.String()
	p.heapWords = int(float64(live)*taskHeapFactor) + 1024
	return p
}

package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tagfree/internal/code"
	"tagfree/internal/gc"
	"tagfree/internal/tasking"
)

// faultText renders everything a task fault reports: its kind, where it
// stopped, the captured frame chain and the full error text.
func faultText(name string, f *tasking.TaskFault) string {
	frames := make([]string, len(f.Frames))
	for i, fr := range f.Frames {
		frames[i] = fmt.Sprintf("%s@%d/%d", fr.Func, fr.PC, fr.FP)
	}
	return fmt.Sprintf("%s kind=%v task=%d func=%s pc=%d alloc=%d frames=[%s]\n  %s",
		name, f.Kind, f.Task, f.Func, f.PC, f.AllocSize, strings.Join(frames, " "), f.Error())
}

// faultSrc holds one way to fail per entry. Every entry is a task body of
// type unit -> int; main runs the same failure as a lone program.
const faultSrc = `
let rec down n = if n = 0 then 100 / n else 1 + down (n - 1)
let divzero () = down 100
let head xs = match xs with | x :: _ -> x
let rec upto n = if n = 0 then [] else n :: upto (n - 1)
let nomatch () = head (upto 0) + 1
let app f x = f x
let badclos () = app (fun y -> y + 1) 41
let rec spin n acc = if n = 0 then acc else spin (n - 1) (acc + n)
let spinner () = spin 5000 0
let rec len xs = match xs with | [] -> 0 | _ :: r -> 1 + len r
let rec hoard n = if n = 0 then 0 else len (upto 20) + hoard (n - 1)
let hoarder () = hoard 50
let worker () = len (upto 30)
`

// nullClosure points the closure operand of app's closure call at a new
// constant holding a null word: the interpreter's undefined-closure trap
// cannot be reached from well-typed source (let rec closures are patched
// before any member can run), so the test plants the null itself.
func nullClosure(t *testing.T, prog *code.Program) {
	t.Helper()
	fi := prog.Funcs[prog.FuncByName("app")]
	for pc := fi.Entry; ; pc += code.InstrLen(prog.Code, pc) {
		if prog.Code[pc] == code.OpCallC {
			prog.Consts = append(prog.Consts, 0)
			prog.Code[pc+3] = code.EncodeAtom(code.AtomConst, len(prog.Consts)-1)
			return
		}
		if prog.Code[pc] == code.OpRet {
			t.Fatal("app has no closure call")
		}
	}
}

// TestFaultTextGolden pins the exact fault record and error text of each
// kind of task failure — a division by zero a hundred frames deep, a match
// failure, the application of a null closure, and step and allocation
// budget faults — for a lone task and for the same task beside a sibling.
func TestFaultTextGolden(t *testing.T) {
	type fcase struct {
		entry  string
		budget Options
	}
	cases := []fcase{
		{entry: "divzero"},
		{entry: "nomatch"},
		{entry: "badclos"},
		{entry: "spinner", budget: Options{BudgetSteps: 2000}},
		{entry: "hoarder", budget: Options{BudgetAllocWords: 300}},
	}
	var got []string
	for _, c := range cases {
		for _, entries := range [][]string{{c.entry}, {"worker", c.entry}} {
			name := strings.Join(entries, "+")
			opts := c.budget
			opts.Strategy = gc.StratCompiled
			opts.HeapWords = 1024
			opts.DisableGCWordElision = true
			prog, _, err := Build(faultSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.entry == "badclos" {
				nullClosure(t, prog)
			}
			g, err := newGroup(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				g.Spawn(prog.FuncByName(e))
			}
			if err := g.RunInit(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := g.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, task := range g.Tasks {
				if entries[i] == "worker" {
					if task.Status != tasking.Done {
						t.Fatalf("%s: sibling ended %v: %v", name, task.Status, task.Err)
					}
					continue
				}
				var f *tasking.TaskFault
				if task.Status != tasking.Faulted || !errors.As(task.Err, &f) {
					t.Fatalf("%s: task %d ended %v: %v", name, i, task.Status, task.Err)
				}
				got = append(got, faultText(name, f))
			}
		}
	}
	// A lone program run through Run reports the same fault as its error.
	prog, anal, err := Build(faultSrc+"let main () = divzero ()\n", Options{Strategy: gc.StratCompiled})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunProgram(prog, anal, Options{Strategy: gc.StratCompiled})
	var f *tasking.TaskFault
	if !errors.As(err, &f) {
		t.Fatalf("main: want a task fault, got %v", err)
	}
	got = append(got, faultText("main", f))

	want := strings.TrimSpace(faultTextWant)
	if g := strings.Join(got, "\n"); g != want {
		gl, wl := strings.Split(g, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				t.Errorf("fault text differs at line %d:\n  got  %s\n  want %s", i+1, a, b)
			}
		}
	}
}

const faultTextWant = `
divzero kind=RuntimeError task=0 func=down pc=9 alloc=0 frames=[down@9/904 down@22/895 down@22/886 down@22/877 down@22/868 down@22/859 down@22/850 down@22/841 down@22/832 down@22/823 down@22/814 down@22/805 down@22/796 down@22/787 down@22/778 down@22/769 down@22/760 down@22/751 down@22/742 down@22/733 down@22/724 down@22/715 down@22/706 down@22/697 down@22/688 down@22/679 down@22/670 down@22/661 down@22/652 down@22/643 down@22/634 down@22/625 down@22/616 down@22/607 down@22/598 down@22/589 down@22/580 down@22/571 down@22/562 down@22/553 down@22/544 down@22/535 down@22/526 down@22/517 down@22/508 down@22/499 down@22/490 down@22/481 down@22/472 down@22/463 down@22/454 down@22/445 down@22/436 down@22/427 down@22/418 down@22/409 down@22/400 down@22/391 down@22/382 down@22/373 down@22/364 down@22/355 down@22/346 down@22/337]
  task 0: runtime error in down at pc 9: division by zero; backtrace: down@pc9(fp=904) <- down@pc22(fp=895) <- down@pc22(fp=886) <- down@pc22(fp=877) <- down@pc22(fp=868) <- down@pc22(fp=859) <- down@pc22(fp=850) <- down@pc22(fp=841) <- down@pc22(fp=832) <- down@pc22(fp=823) <- down@pc22(fp=814) <- down@pc22(fp=805) <- ... (52 more)
worker+divzero kind=RuntimeError task=1 func=down pc=9 alloc=0 frames=[down@9/904 down@22/895 down@22/886 down@22/877 down@22/868 down@22/859 down@22/850 down@22/841 down@22/832 down@22/823 down@22/814 down@22/805 down@22/796 down@22/787 down@22/778 down@22/769 down@22/760 down@22/751 down@22/742 down@22/733 down@22/724 down@22/715 down@22/706 down@22/697 down@22/688 down@22/679 down@22/670 down@22/661 down@22/652 down@22/643 down@22/634 down@22/625 down@22/616 down@22/607 down@22/598 down@22/589 down@22/580 down@22/571 down@22/562 down@22/553 down@22/544 down@22/535 down@22/526 down@22/517 down@22/508 down@22/499 down@22/490 down@22/481 down@22/472 down@22/463 down@22/454 down@22/445 down@22/436 down@22/427 down@22/418 down@22/409 down@22/400 down@22/391 down@22/382 down@22/373 down@22/364 down@22/355 down@22/346 down@22/337]
  task 1: runtime error in down at pc 9: division by zero; backtrace: down@pc9(fp=904) <- down@pc22(fp=895) <- down@pc22(fp=886) <- down@pc22(fp=877) <- down@pc22(fp=868) <- down@pc22(fp=859) <- down@pc22(fp=850) <- down@pc22(fp=841) <- down@pc22(fp=832) <- down@pc22(fp=823) <- down@pc22(fp=814) <- down@pc22(fp=805) <- ... (52 more)
nomatch kind=RuntimeError task=0 func=head pc=65 alloc=0 frames=[head@65/6 nomatch@110/0]
  task 0: runtime error in head at pc 65: match failure: no pattern matched; backtrace: head@pc65(fp=6) <- nomatch@pc110(fp=0)
worker+nomatch kind=RuntimeError task=1 func=head pc=65 alloc=0 frames=[head@65/6 nomatch@110/0]
  task 1: runtime error in head at pc 65: match failure: no pattern matched; backtrace: head@pc65(fp=6) <- nomatch@pc110(fp=0)
badclos kind=RuntimeError task=0 func=app pc=122 alloc=0 frames=[app@122/5 badclos@136/0]
  task 0: runtime error in app at pc 122: application of an undefined recursive closure; backtrace: app@pc122(fp=5) <- badclos@pc136(fp=0)
worker+badclos kind=RuntimeError task=1 func=app pc=122 alloc=0 frames=[app@122/5 badclos@136/0]
  task 1: runtime error in app at pc 122: application of an undefined recursive closure; backtrace: app@pc122(fp=5) <- badclos@pc136(fp=0)
spinner kind=BudgetExceeded task=0 func=spin pc=171 alloc=0 frames=[spin@171/3595 spin@171/3586 spin@171/3577 spin@171/3568 spin@171/3559 spin@171/3550 spin@171/3541 spin@171/3532 spin@171/3523 spin@171/3514 spin@171/3505 spin@171/3496 spin@171/3487 spin@171/3478 spin@171/3469 spin@171/3460 spin@171/3451 spin@171/3442 spin@171/3433 spin@171/3424 spin@171/3415 spin@171/3406 spin@171/3397 spin@171/3388 spin@171/3379 spin@171/3370 spin@171/3361 spin@171/3352 spin@171/3343 spin@171/3334 spin@171/3325 spin@171/3316 spin@171/3307 spin@171/3298 spin@171/3289 spin@171/3280 spin@171/3271 spin@171/3262 spin@171/3253 spin@171/3244 spin@171/3235 spin@171/3226 spin@171/3217 spin@171/3208 spin@171/3199 spin@171/3190 spin@171/3181 spin@171/3172 spin@171/3163 spin@171/3154 spin@171/3145 spin@171/3136 spin@171/3127 spin@171/3118 spin@171/3109 spin@171/3100 spin@171/3091 spin@171/3082 spin@171/3073 spin@171/3064 spin@171/3055 spin@171/3046 spin@171/3037 spin@171/3028]
  task 0 exceeded its budget in spin at pc 171: step budget exhausted: 2001 instructions executed, limit 2000; backtrace: spin@pc171(fp=3595) <- spin@pc171(fp=3586) <- spin@pc171(fp=3577) <- spin@pc171(fp=3568) <- spin@pc171(fp=3559) <- spin@pc171(fp=3550) <- spin@pc171(fp=3541) <- spin@pc171(fp=3532) <- spin@pc171(fp=3523) <- spin@pc171(fp=3514) <- spin@pc171(fp=3505) <- spin@pc171(fp=3496) <- ... (52 more)
worker+spinner kind=BudgetExceeded task=1 func=spin pc=171 alloc=0 frames=[spin@171/3595 spin@171/3586 spin@171/3577 spin@171/3568 spin@171/3559 spin@171/3550 spin@171/3541 spin@171/3532 spin@171/3523 spin@171/3514 spin@171/3505 spin@171/3496 spin@171/3487 spin@171/3478 spin@171/3469 spin@171/3460 spin@171/3451 spin@171/3442 spin@171/3433 spin@171/3424 spin@171/3415 spin@171/3406 spin@171/3397 spin@171/3388 spin@171/3379 spin@171/3370 spin@171/3361 spin@171/3352 spin@171/3343 spin@171/3334 spin@171/3325 spin@171/3316 spin@171/3307 spin@171/3298 spin@171/3289 spin@171/3280 spin@171/3271 spin@171/3262 spin@171/3253 spin@171/3244 spin@171/3235 spin@171/3226 spin@171/3217 spin@171/3208 spin@171/3199 spin@171/3190 spin@171/3181 spin@171/3172 spin@171/3163 spin@171/3154 spin@171/3145 spin@171/3136 spin@171/3127 spin@171/3118 spin@171/3109 spin@171/3100 spin@171/3091 spin@171/3082 spin@171/3073 spin@171/3064 spin@171/3055 spin@171/3046 spin@171/3037 spin@171/3028]
  task 1 exceeded its budget in spin at pc 171: step budget exhausted: 2001 instructions executed, limit 2000; backtrace: spin@pc171(fp=3595) <- spin@pc171(fp=3586) <- spin@pc171(fp=3577) <- spin@pc171(fp=3568) <- spin@pc171(fp=3559) <- spin@pc171(fp=3550) <- spin@pc171(fp=3541) <- spin@pc171(fp=3532) <- spin@pc171(fp=3523) <- spin@pc171(fp=3514) <- spin@pc171(fp=3505) <- spin@pc171(fp=3496) <- ... (52 more)
hoarder kind=BudgetExceeded task=0 func=upto pc=90 alloc=2 frames=[upto@90/156 upto@84/148 upto@84/140 upto@84/132 upto@84/124 upto@84/116 upto@84/108 upto@84/100 upto@84/92 upto@84/84 hoard@249/74 hoard@265/64 hoard@265/54 hoard@265/44 hoard@265/34 hoard@265/24 hoard@265/14 hoard@265/4 hoarder@282/0]
  task 0 exceeded its budget in upto at pc 90: allocation budget exhausted: 302 words requested, quota 300; backtrace: upto@pc90(fp=156) <- upto@pc84(fp=148) <- upto@pc84(fp=140) <- upto@pc84(fp=132) <- upto@pc84(fp=124) <- upto@pc84(fp=116) <- upto@pc84(fp=108) <- upto@pc84(fp=100) <- upto@pc84(fp=92) <- upto@pc84(fp=84) <- hoard@pc249(fp=74) <- hoard@pc265(fp=64) <- ... (7 more)
worker+hoarder kind=BudgetExceeded task=1 func=upto pc=90 alloc=2 frames=[upto@90/156 upto@84/148 upto@84/140 upto@84/132 upto@84/124 upto@84/116 upto@84/108 upto@84/100 upto@84/92 upto@84/84 hoard@249/74 hoard@265/64 hoard@265/54 hoard@265/44 hoard@265/34 hoard@265/24 hoard@265/14 hoard@265/4 hoarder@282/0]
  task 1 exceeded its budget in upto at pc 90: allocation budget exhausted: 302 words requested, quota 300; backtrace: upto@pc90(fp=156) <- upto@pc84(fp=148) <- upto@pc84(fp=140) <- upto@pc84(fp=132) <- upto@pc84(fp=124) <- upto@pc84(fp=116) <- upto@pc84(fp=108) <- upto@pc84(fp=100) <- upto@pc84(fp=92) <- upto@pc84(fp=84) <- hoard@pc249(fp=74) <- hoard@pc265(fp=64) <- ... (7 more)
main kind=RuntimeError task=0 func=down pc=9 alloc=0 frames=[down@9/908 down@22/899 down@22/890 down@22/881 down@22/872 down@22/863 down@22/854 down@22/845 down@22/836 down@22/827 down@22/818 down@22/809 down@22/800 down@22/791 down@22/782 down@22/773 down@22/764 down@22/755 down@22/746 down@22/737 down@22/728 down@22/719 down@22/710 down@22/701 down@22/692 down@22/683 down@22/674 down@22/665 down@22/656 down@22/647 down@22/638 down@22/629 down@22/620 down@22/611 down@22/602 down@22/593 down@22/584 down@22/575 down@22/566 down@22/557 down@22/548 down@22/539 down@22/530 down@22/521 down@22/512 down@22/503 down@22/494 down@22/485 down@22/476 down@22/467 down@22/458 down@22/449 down@22/440 down@22/431 down@22/422 down@22/413 down@22/404 down@22/395 down@22/386 down@22/377 down@22/368 down@22/359 down@22/350 down@22/341]
  task 0: runtime error in down at pc 9: division by zero; backtrace: down@pc9(fp=908) <- down@pc22(fp=899) <- down@pc22(fp=890) <- down@pc22(fp=881) <- down@pc22(fp=872) <- down@pc22(fp=863) <- down@pc22(fp=854) <- down@pc22(fp=845) <- down@pc22(fp=836) <- down@pc22(fp=827) <- down@pc22(fp=818) <- down@pc22(fp=809) <- ... (52 more)
`

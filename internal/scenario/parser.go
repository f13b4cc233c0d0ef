package scenario

import (
	"fmt"
	"strconv"

	"tagfree/internal/mlang/token"
)

// The scenario parser: a recursive-descent walk over the token stream
// with one token of lookahead, validating as it goes. Every failure —
// lexical, syntactic or semantic (unknown key, unknown strategy,
// out-of-range size) — is reported as a *PosError carrying the offending
// token's position, so `tfbench -scenario` failures always read
// "file.tfs:line:col: message". Validation happens here rather than in a
// separate pass so the position is still at hand; the ranges mirror the
// flag constraints cmd/tfgc and cmd/tfbench enforce.

// Parse parses .tfs source into its scenarios. It returns the first
// error encountered; the error is always a *PosError.
func Parse(src string) ([]*Scenario, error) {
	p := &parser{lex: NewLexer(src)}
	p.advance()
	var out []*Scenario
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == EOF {
			return out, nil
		}
		sc, err := p.parseScenario()
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, posErrorf(sc.Pos, "duplicate scenario name %q (first defined at %s)", sc.Name, prev)
		}
		seen[sc.Name] = sc.Pos
		out = append(out, sc)
	}
}

type parser struct {
	lex *Lexer
	tok Token
}

func (p *parser) advance() { p.tok = p.lex.Next() }

func (p *parser) skipNewlines() {
	for p.tok.Kind == NEWLINE {
		p.advance()
	}
}

// fail turns an unexpected token into a diagnostic, preferring the
// lexer's own message when the token is one it already flagged.
func (p *parser) fail(format string, args ...any) error {
	if p.tok.Kind == ILLEGAL {
		if errs := p.lex.Errors(); len(errs) > 0 {
			return errs[0]
		}
	}
	return posErrorf(p.tok.Pos, format, args...)
}

func (p *parser) describe() string {
	switch p.tok.Kind {
	case EOF:
		return "end of file"
	case NEWLINE:
		return "end of line"
	case IDENT, INT, FLOAT, ILLEGAL:
		return fmt.Sprintf("%q", p.tok.Text)
	}
	return fmt.Sprintf("%q", p.tok.Kind.String())
}

// expectEndOfLine consumes the statement terminator (newline, or the
// closing brace left for the caller).
func (p *parser) expectEndOfLine(what string) error {
	switch p.tok.Kind {
	case NEWLINE:
		p.advance()
		return nil
	case RBRACE, EOF:
		return nil
	}
	return p.fail("expected end of line after %s, found %s", what, p.describe())
}

// parseScenario parses `scenario <name> { ... }`.
func (p *parser) parseScenario() (*Scenario, error) {
	if p.tok.Kind != IDENT || p.tok.Text != "scenario" {
		return nil, p.fail("expected \"scenario\", found %s", p.describe())
	}
	sc := &Scenario{Pos: p.tok.Pos, Repeats: 1, keyPos: map[string]token.Pos{}}
	p.advance()
	if p.tok.Kind != IDENT {
		return nil, p.fail("expected scenario name, found %s", p.describe())
	}
	sc.Name = p.tok.Text
	p.advance()
	if p.tok.Kind != LBRACE {
		return nil, p.fail("expected { after scenario name, found %s", p.describe())
	}
	p.advance()
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			break
		}
		if p.tok.Kind == EOF {
			return nil, posErrorf(sc.Pos, "scenario %q missing closing }", sc.Name)
		}
		if err := p.parseStmt(sc); err != nil {
			return nil, err
		}
	}
	if sc.Workload == "" {
		return nil, posErrorf(sc.Pos, "scenario %q missing required key \"workload\"", sc.Name)
	}
	if len(sc.Mix) > 0 && sc.Arrivals == nil {
		return nil, posErrorf(sc.keyPos["mix"], "mix requires an arrivals block (closed-loop runs use the whole corpus)")
	}
	// Unset axes default to the full comparative shape on the strategy
	// axis and the minimal one elsewhere.
	if len(sc.Strategies) == 0 {
		for _, s := range strategyNames {
			sc.Strategies = append(sc.Strategies, s.strat)
		}
	}
	if len(sc.Disciplines) == 0 {
		sc.Disciplines = []Discipline{Copying}
	}
	if len(sc.Shards) == 0 {
		sc.Shards = []int{1}
	}
	return sc, nil
}

const scenarioKeys = "workload, strategies, disciplines, shards, repeats, heap, nursery, promote, tlab, gc_concurrent, gc_heap_liveness, faults, arrivals, mix"

// parseStmt parses one `key values` statement inside a scenario body.
func (p *parser) parseStmt(sc *Scenario) error {
	if p.tok.Kind != IDENT {
		return p.fail("expected scenario key, found %s", p.describe())
	}
	key, keyPos := p.tok.Text, p.tok.Pos
	if prev, dup := sc.keyPos[key]; dup {
		return posErrorf(keyPos, "duplicate key %q (first set at %s)", key, prev)
	}
	sc.keyPos[key] = keyPos
	p.advance()

	switch key {
	case "workload":
		name, err := p.ident("workload name")
		if err != nil {
			return err
		}
		sc.Workload = name
	case "strategies":
		for p.tok.Kind == IDENT {
			strat, ok := strategyByName(p.tok.Text)
			if !ok {
				return posErrorf(p.tok.Pos, "unknown strategy %q (have %s)", p.tok.Text, strategyList())
			}
			for _, have := range sc.Strategies {
				if have == strat {
					return posErrorf(p.tok.Pos, "duplicate strategy %q", p.tok.Text)
				}
			}
			sc.Strategies = append(sc.Strategies, strat)
			p.advance()
		}
		if len(sc.Strategies) == 0 {
			return p.fail("expected at least one strategy, found %s", p.describe())
		}
	case "disciplines":
		for p.tok.Kind == IDENT {
			var d Discipline
			switch p.tok.Text {
			case "copying":
				d = Copying
			case "marksweep":
				d = MarkSweep
			default:
				return posErrorf(p.tok.Pos, "unknown discipline %q (have copying, marksweep)", p.tok.Text)
			}
			for _, have := range sc.Disciplines {
				if have == d {
					return posErrorf(p.tok.Pos, "duplicate discipline %q", p.tok.Text)
				}
			}
			sc.Disciplines = append(sc.Disciplines, d)
			p.advance()
		}
		if len(sc.Disciplines) == 0 {
			return p.fail("expected at least one discipline, found %s", p.describe())
		}
	case "shards":
		for p.tok.Kind == INT {
			n, err := p.intValue("shards")
			if err != nil {
				return err
			}
			if n < 1 || n > maxShards {
				return posErrorf(p.tok.Pos, "shards %d out of range (1..%d)", n, maxShards)
			}
			for _, have := range sc.Shards {
				if have == n {
					return posErrorf(p.tok.Pos, "duplicate shards %d", n)
				}
			}
			sc.Shards = append(sc.Shards, n)
			p.advance()
		}
		if len(sc.Shards) == 0 {
			return p.fail("expected at least one shard count, found %s", p.describe())
		}
	case "repeats":
		n, pos, err := p.intArgAt("repeats")
		if err != nil {
			return err
		}
		if n < 1 || n > maxRepeats {
			return posErrorf(pos, "repeats %d out of range (1..%d)", n, maxRepeats)
		}
		sc.Repeats = n
	case "heap":
		n, pos, err := p.intArgAt("heap")
		if err != nil {
			return err
		}
		if n < minHeapWords || n > maxHeapWords {
			return posErrorf(pos, "heap size %d words out of range (%d..%d)", n, minHeapWords, maxHeapWords)
		}
		sc.HeapWords = n
	case "nursery":
		n, pos, err := p.intArgAt("nursery")
		if err != nil {
			return err
		}
		if n != 0 && (n < minNursery || n > maxNursery) {
			return posErrorf(pos, "nursery size %d words out of range (0 to disable, or %d..%d)", n, minNursery, maxNursery)
		}
		sc.NurseryWords = n
	case "promote":
		n, pos, err := p.intArgAt("promote")
		if err != nil {
			return err
		}
		if n < 0 || n > maxPromote {
			return posErrorf(pos, "promote %d out of range (0..%d)", n, maxPromote)
		}
		sc.PromoteAfter = n
	case "tlab":
		n, pos, err := p.intArgAt("tlab")
		if err != nil {
			return err
		}
		if n != 0 && (n < minTLAB || n > maxTLAB) {
			return posErrorf(pos, "tlab size %d words out of range (0 to disable, or %d..%d)", n, minTLAB, maxTLAB)
		}
		sc.TLABWords = n
	case "gc_concurrent":
		sc.GCConcurrent = true
	case "gc_heap_liveness":
		sc.GCHeapLiveness = true
	case "faults":
		return p.parseFaults(sc)
	case "arrivals":
		return p.parseArrivals(sc, keyPos)
	case "mix":
		return p.parseMix(sc)
	default:
		return posErrorf(keyPos, "unknown scenario key %q (have %s)", key, scenarioKeys)
	}
	return p.expectEndOfLine(key)
}

const faultKeys = "torture, verify-heap, fail-alloc, fail-every, fail-refills, heap-grow, heap-max"

// parseFaults parses the `faults { ... }` block.
func (p *parser) parseFaults(sc *Scenario) error {
	if p.tok.Kind != LBRACE {
		return p.fail("expected { after faults, found %s", p.describe())
	}
	p.advance()
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			return p.expectEndOfLine("faults block")
		}
		if p.tok.Kind != IDENT {
			return p.fail("expected faults key, found %s", p.describe())
		}
		key, keyPos := p.tok.Text, p.tok.Pos
		if prev, dup := seen[key]; dup {
			return posErrorf(keyPos, "duplicate key %q (first set at %s)", key, prev)
		}
		seen[key] = keyPos
		p.advance()
		switch key {
		case "torture":
			sc.Faults.Torture = true
		case "verify-heap":
			sc.Faults.VerifyHeap = true
		case "fail-refills":
			sc.Faults.FailRefills = true
		case "fail-alloc":
			n, pos, err := p.intArgAt("fail-alloc")
			if err != nil {
				return err
			}
			if n < 1 {
				return posErrorf(pos, "fail-alloc %d out of range (must be at least 1)", n)
			}
			sc.Faults.FailAlloc = int64(n)
		case "fail-every":
			n, pos, err := p.intArgAt("fail-every")
			if err != nil {
				return err
			}
			if n < 1 {
				return posErrorf(pos, "fail-every %d out of range (must be at least 1)", n)
			}
			sc.Faults.FailEvery = int64(n)
		case "heap-max":
			n, pos, err := p.intArgAt("heap-max")
			if err != nil {
				return err
			}
			if n != 0 && (n < minHeapWords || n > maxHeapWords) {
				return posErrorf(pos, "heap-max %d words out of range (0 for unbounded, or %d..%d)", n, minHeapWords, maxHeapWords)
			}
			sc.Faults.HeapMax = n
		case "heap-grow":
			if p.tok.Kind != FLOAT && p.tok.Kind != INT {
				return p.fail("expected number after heap-grow, found %s", p.describe())
			}
			f, err := strconv.ParseFloat(p.tok.Text, 64)
			if err != nil {
				return posErrorf(p.tok.Pos, "malformed heap-grow factor %q", p.tok.Text)
			}
			if f <= 1 || f > maxHeapGrow {
				return posErrorf(p.tok.Pos, "heap-grow %s out of range (must exceed 1, at most %g)", p.tok.Text, maxHeapGrow)
			}
			sc.Faults.HeapGrow = f
			p.advance()
		default:
			return posErrorf(keyPos, "unknown faults key %q (have %s)", key, faultKeys)
		}
		if err := p.expectEndOfLine(key); err != nil {
			return err
		}
	}
}

const arrivalsKeys = "period, burst, requests, seed, queue, inflight, shed-heap, retries, backoff, backoff-cap, deadline, budget-steps, budget-alloc"

// parseArrivals parses the `arrivals { ... }` block — the open-loop
// serving plan. period and requests are required; everything else
// defaults like the tfserve flags.
func (p *parser) parseArrivals(sc *Scenario, blockPos token.Pos) error {
	if p.tok.Kind != LBRACE {
		return p.fail("expected { after arrivals, found %s", p.describe())
	}
	p.advance()
	a := &ArrivalsBlock{}
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			if a.Period == 0 {
				return posErrorf(blockPos, "arrivals block missing required key \"period\"")
			}
			if a.Requests == 0 {
				return posErrorf(blockPos, "arrivals block missing required key \"requests\"")
			}
			sc.Arrivals = a
			return p.expectEndOfLine("arrivals block")
		}
		if p.tok.Kind != IDENT {
			return p.fail("expected arrivals key, found %s", p.describe())
		}
		key, keyPos := p.tok.Text, p.tok.Pos
		if prev, dup := seen[key]; dup {
			return posErrorf(keyPos, "duplicate key %q (first set at %s)", key, prev)
		}
		seen[key] = keyPos
		p.advance()
		n, pos, err := p.intArgAt(key)
		if err != nil {
			return err
		}
		switch key {
		case "period":
			if n < 1 || n > maxPeriod {
				return posErrorf(pos, "period %d out of range (1..%d)", n, maxPeriod)
			}
			a.Period = int64(n)
		case "burst":
			if n < 1 || n > maxBurst {
				return posErrorf(pos, "burst %d out of range (1..%d)", n, maxBurst)
			}
			a.Burst = n
		case "requests":
			if n < 1 || n > maxRequests {
				return posErrorf(pos, "requests %d out of range (1..%d)", n, maxRequests)
			}
			a.Requests = n
		case "seed":
			if n < 0 {
				return posErrorf(pos, "seed %d out of range (must not be negative)", n)
			}
			a.Seed = int64(n)
		case "queue":
			if n < 1 || n > maxQueue {
				return posErrorf(pos, "queue depth %d out of range (1..%d)", n, maxQueue)
			}
			a.Queue = n
		case "inflight":
			if n < 1 || n > maxInflight {
				return posErrorf(pos, "inflight %d out of range (1..%d)", n, maxInflight)
			}
			a.Inflight = n
		case "shed-heap":
			if n < 1 || n > 100 {
				return posErrorf(pos, "shed-heap %d out of range (1..100 percent)", n)
			}
			a.ShedHeapPct = n
		case "retries":
			if n < 0 || n > maxRetries {
				return posErrorf(pos, "retries %d out of range (0..%d)", n, maxRetries)
			}
			a.Retries = n
		case "backoff":
			if n < 1 || n > maxPeriod {
				return posErrorf(pos, "backoff %d out of range (1..%d)", n, maxPeriod)
			}
			a.Backoff = int64(n)
		case "backoff-cap":
			if n < 1 || n > maxPeriod {
				return posErrorf(pos, "backoff-cap %d out of range (1..%d)", n, maxPeriod)
			}
			a.BackoffCap = int64(n)
		case "deadline":
			if n < 1 || int64(n) > maxBudget {
				return posErrorf(pos, "deadline %d out of range (1..%d)", n, maxBudget)
			}
			a.Deadline = int64(n)
		case "budget-steps":
			if n < 1 || int64(n) > maxBudget {
				return posErrorf(pos, "budget-steps %d out of range (1..%d)", n, maxBudget)
			}
			a.BudgetSteps = int64(n)
		case "budget-alloc":
			if n < 1 || int64(n) > maxBudget {
				return posErrorf(pos, "budget-alloc %d out of range (1..%d)", n, maxBudget)
			}
			a.BudgetAlloc = int64(n)
		default:
			return posErrorf(keyPos, "unknown arrivals key %q (have %s)", key, arrivalsKeys)
		}
		if err := p.expectEndOfLine(key); err != nil {
			return err
		}
	}
}

// parseMix parses the `mix { <entry> <weight> ... }` block: the weighted
// service mix arrivals sample from. Entry names are validated against the
// workload at compile time (the workload may come from another key that
// has not parsed yet).
func (p *parser) parseMix(sc *Scenario) error {
	if p.tok.Kind != LBRACE {
		return p.fail("expected { after mix, found %s", p.describe())
	}
	p.advance()
	seen := map[string]token.Pos{}
	for {
		p.skipNewlines()
		if p.tok.Kind == RBRACE {
			p.advance()
			if len(sc.Mix) == 0 {
				return posErrorf(sc.keyPos["mix"], "mix block needs at least one entry")
			}
			return p.expectEndOfLine("mix block")
		}
		if p.tok.Kind != IDENT {
			return p.fail("expected mix entry name, found %s", p.describe())
		}
		entry, entryPos := p.tok.Text, p.tok.Pos
		if prev, dup := seen[entry]; dup {
			return posErrorf(entryPos, "duplicate mix entry %q (first set at %s)", entry, prev)
		}
		seen[entry] = entryPos
		p.advance()
		n, pos, err := p.intArgAt("mix weight")
		if err != nil {
			return err
		}
		if n < 1 || n > maxMixWeight {
			return posErrorf(pos, "mix weight %d out of range (1..%d)", n, maxMixWeight)
		}
		sc.Mix = append(sc.Mix, MixItem{Entry: entry, Weight: n, Pos: entryPos})
		if err := p.expectEndOfLine(entry); err != nil {
			return err
		}
	}
}

// ident consumes one identifier argument.
func (p *parser) ident(what string) (string, error) {
	if p.tok.Kind != IDENT {
		return "", p.fail("expected %s, found %s", what, p.describe())
	}
	name := p.tok.Text
	p.advance()
	return name, nil
}

// intValue reads the current INT token without consuming it, so callers
// can keep its position for range diagnostics.
func (p *parser) intValue(what string) (int, error) {
	n, err := strconv.Atoi(p.tok.Text)
	if err != nil {
		return 0, posErrorf(p.tok.Pos, "malformed %s value %q", what, p.tok.Text)
	}
	return n, nil
}

// intArgAt consumes one integer argument, returning its position.
func (p *parser) intArgAt(what string) (int, token.Pos, error) {
	if p.tok.Kind != INT {
		return 0, p.tok.Pos, p.fail("expected integer after %s, found %s", what, p.describe())
	}
	pos := p.tok.Pos
	n, err := p.intValue(what)
	if err != nil {
		return 0, pos, err
	}
	p.advance()
	return n, pos, nil
}

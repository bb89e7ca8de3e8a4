package constraint

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/values"
)

func props() values.Value {
	return values.Record(
		values.F("cost", values.Int(10)),
		values.F("rate", values.Float(2.5)),
		values.F("name", values.Str("acme")),
		values.F("fast", values.Bool(true)),
		values.F("loc", values.Record(values.F("city", values.Str("brisbane")))),
	)
}

func TestConstraintMatches(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"", true},
		{"true", true},
		{"false", false},
		{"cost == 10", true},
		{"cost != 10", false},
		{"cost < 20", true},
		{"cost <= 10", true},
		{"cost > 10", false},
		{"cost >= 11", false},
		{"rate > 2", true},
		{"rate < 2.6", true},
		{"name == 'acme'", true},
		{`name == "other"`, false},
		{"name != 'other'", true},
		{"fast", true},
		{"not fast", false},
		{"fast and cost < 20", true},
		{"fast and cost > 20", false},
		{"cost > 20 or rate > 2", true},
		{"not (cost > 20) and fast", true},
		{"exist cost", true},
		{"exist missing", false},
		{"not exist missing", true},
		{"loc.city == 'brisbane'", true},
		{"loc.city == 'perth'", false},
		{"exist loc.city", true},
		{"exist loc.country", false},
		{"exist loc.city.zip", false}, // a path cannot descend into a string
		{"cost + 5 == 15", true},
		{"cost - 5 == 5", true},
		{"cost * 2 == 20", true},
		{"cost / 2 == 5", true},
		{"-cost == -10", true},
		{"cost + rate > 12", true},
		{"rate * 2 == 5.0", true},
		{"name + '!' == 'acme!'", true},
		{"2 + 3 * 4 == 14", true},   // precedence
		{"(2 + 3) * 4 == 20", true}, // grouping
		{"cost < 20 and cost > 5 and fast", true},
		{"false or false or cost == 10", true},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			e, err := Parse(c.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.src, err)
			}
			got, err := e.Matches(props())
			if err != nil {
				t.Fatalf("Matches(%q): %v", c.src, err)
			}
			if got != c.want {
				t.Errorf("Matches(%q) = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

func TestConstraintSyntaxErrors(t *testing.T) {
	bad := []string{
		"cost ==",
		"== 10",
		"(cost == 10",
		"cost == 10)",
		"cost @ 10",
		"'unterminated",
		"1.2.3",
		"and",
		"not",
		"exist",
		"exist 42",
		"cost 10",
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want ErrSyntax", src, err)
		}
	}
}

func TestConstraintEvalErrors(t *testing.T) {
	bad := []string{
		"missing == 10",    // unknown property
		"cost and fast",    // non-boolean operand
		"not cost",         // not on non-boolean
		"name < 10",        // unordered cross-kind
		"cost / 0 == 1",    // integer division by zero
		"rate / 0.0 == 1",  // float division by zero
		"-name == 'x'",     // negate string
		"name * 2 == 'xx'", // arithmetic on string
		"fast + 1 == 2",    // arithmetic on bool
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := e.Matches(props()); !errors.Is(err, ErrEval) {
			t.Errorf("Matches(%q) = %v, want ErrEval", src, err)
		}
	}
	// A non-boolean top-level result is also an evaluation error.
	e, err := Parse("cost + 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Matches(props()); !errors.Is(err, ErrEval) {
		t.Errorf("non-boolean result = %v", err)
	}
}

func TestConstraintShortCircuit(t *testing.T) {
	// The right side references a missing property but is never evaluated.
	for _, src := range []string{
		"false and missing == 1",
		"true or missing == 1",
		"false and 1/0 == 1",
		"fast and false and 1/0 == 1 and missing", // the rest of the chain too
		"false or true or 1/0 == 1",
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Matches(props()); err != nil {
			t.Errorf("short circuit failed for %q: %v", src, err)
		}
	}
}

func TestExprEvalArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want values.Value
	}{
		{"2 + 3", values.Int(5)},
		{"2.0 + 3", values.Float(5)},
		{"cost * rate", values.Float(25)},
		{"'a' + 'b'", values.Str("ab")},
		{"-(2 + 3)", values.Int(-5)},
		{"-2.5", values.Float(-2.5)},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := e.Eval(props())
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := Parse("cost == 10")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "cost == 10" {
		t.Errorf("String = %q", e.String())
	}
}

// compiled keeps the last compilation a test measured, so its Expr is made
// on the heap, as a Parse's is.
var compiled *Expr

// TestParseAllocBudget: a compilation allocates the Expr and its program,
// one array of nodes, whatever the expression's size — an identifier or a
// string keeps its text as written, in the source — and the empty
// constraint only the Expr. A Parse that misses the memo on a source's
// first sight allocates what a compilation does; on its second sight it
// also allocates the copy of the source it keeps (3 for a non-empty
// source); and a Parse of a source the memo keeps allocates nothing. A
// ParseInto that would compile — a first sight, or a source too long for
// the memo — compiles into the buffer it is lent and, once that has grown
// past the source's program, allocates nothing. The rows are the trader
// bench's preference and constraint shapes, and one of 59 nodes, too long
// for the memo.
func TestParseAllocBudget(t *testing.T) {
	wide := strings.TrimSuffix(strings.Repeat("(load < 42 or load > 57) and region != 'fr' or ", 5), " or ")
	lent := new(Expr)
	if _, err := ParseInto(lent, wide); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src    string
		budget float64
	}{
		{"", 1},
		{"cost", 2},
		{"load < 42", 2},
		{"region == 'fr'", 2},
		{"secure == false and load < 42", 2},
		{"load > 42 or region == 'fr'", 2},
		{"not (load < 42)", 2},
		{"load * 2 >= 42", 2},
		{"exist cost and load <= 42", 2},
		{"(load < 42 or load > 57) and region != 'fr'", 2},
		{"loc.city == 'brisbane'", 2},
		{wide, 2},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if compiled, err = compileInto(new(Expr), c.src); err != nil {
				t.Fatalf("compile(%q): %v", c.src, err)
			}
		})
		if allocs > c.budget {
			t.Errorf("compile(%q) = %v allocs, budget %v", c.src, allocs, c.budget)
		}
		if c.src != "" && len(c.src) <= memoMaxLen {
			// Two sources that share a slot and alternate are each a first
			// sight every time, so every Parse of either compiles and
			// keeps nothing. Two that come twice in turn are each kept on
			// their second sight and evict each other, so each Parse
			// misses, every other one copying its source.
			other := sharingSlot(t, c.src, func(n int) string { return c.src + " or x" + strconv.Itoa(n) })
			firsts := testing.AllocsPerRun(100, func() {
				Parse(c.src)
				Parse(other)
			}) / 2
			if firsts > c.budget {
				t.Errorf("Parse(%q) on a first sight = %v allocs, budget %v", c.src, firsts, c.budget)
			}
			// Alternating from an empty slot, neither is ever a second sight.
			memo[slotOf(c.src)].Store(nil)
			missed[slotOf(c.src)].Store(0)
			if firsts := testing.AllocsPerRun(100, func() {
				ParseInto(lent, c.src)
				ParseInto(lent, other)
			}); firsts != 0 {
				t.Errorf("ParseInto(%q) on a first sight into a grown buffer = %v allocs, want 0", c.src, firsts/2)
			}
			pairs := testing.AllocsPerRun(100, func() {
				Parse(c.src)
				Parse(c.src)
				Parse(other)
				Parse(other)
			}) / 2
			if pairs > 2*c.budget+1 {
				t.Errorf("Parse(%q) on a first and a second sight = %v allocs, budget %v", c.src, pairs, 2*c.budget+1)
			}
		}
		want := 0.0
		if len(c.src) > memoMaxLen {
			want = allocs
			if into := testing.AllocsPerRun(100, func() { ParseInto(lent, c.src) }); into != 0 {
				t.Errorf("ParseInto(%q), too long for the memo, into a grown buffer = %v allocs, want 0", c.src, into)
			}
		}
		Parse(c.src) // a first sight; AllocsPerRun's warm-up is the second
		if allocs := testing.AllocsPerRun(100, func() { Parse(c.src) }); allocs != want {
			t.Errorf("Parse(%q) = %v allocs, want %v", c.src, allocs, want)
		}
	}
}

// TestMatchesAllocatesNothing: evaluation walks the program and builds
// values on the stack; only an error allocates.
func TestMatchesAllocatesNothing(t *testing.T) {
	p := props()
	for _, src := range []string{
		"", "cost", "(cost < 20 or cost > 57) and name != 'fr'", "not not fast",
		"-cost * 2 + rate >= 0", "exist loc.city and loc.city == 'brisbane'",
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Eval(p) }); allocs != 0 {
			t.Errorf("Eval(%q) = %v allocs", src, allocs)
		}
	}
}

// TestHostileInputIsRefused: three sources at the wire's frame limit that
// nest or chain millions deep. Each used to overflow the stack, in the
// parse or in the evaluation, and kill the process; the first pass now
// refuses each, without recursion and before any program is built.
func TestHostileInputIsRefused(t *testing.T) {
	for name, src := range hostileSources() {
		start := time.Now()
		_, err := Parse(src)
		if !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: Parse = %v, want ErrSyntax", name, err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("%s: refused in %v", name, d)
		}
	}
}

// hostileSources are the three: each is at most wire.MaxLen (16 MiB) long.
func hostileSources() map[string]string {
	return map[string]string{
		"nested parentheses": strings.Repeat("(", 8_388_607) + "1" + strings.Repeat(")", 8_388_607),
		"a run of nots":      strings.Repeat("not ", 4_194_303) + "true",
		"a chain of sums":    "1" + strings.Repeat("+1", 8_388_607),
	}
}

// TestBoundsAreExact: an expression at both bounds parses and evaluates —
// a chain and a prefix run as long as the node bound, in a loop — and one
// more operand, or one more parenthesis, is refused.
func TestBoundsAreExact(t *testing.T) {
	chain := func(nodes int) string { return "1" + strings.Repeat("+1", (nodes-1)/2) } // nodes odd
	nots := func(nodes int) string { return strings.Repeat("not ", nodes-1) + "fast" }
	parens := func(depth int) string {
		return strings.Repeat("(", depth) + "cost" + strings.Repeat(")", depth) + " == 10"
	}
	for _, c := range []struct {
		src  string
		want values.Value
	}{
		{chain(maxNodes - 1), values.Int(maxNodes / 2)},
		{nots(maxNodes), values.Bool(false)}, // an odd number of nots
		{parens(maxDepth), values.Bool(true)},
	} {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%.20q…): %v", c.src, err)
		}
		if got, err := e.Eval(props()); err != nil || !got.Equal(c.want) {
			t.Errorf("Eval(%.20q…) = %v, %v; want %v", c.src, got, err, c.want)
		}
	}
	for _, src := range []string{chain(maxNodes + 1), nots(maxNodes + 1), parens(maxDepth + 1)} {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%.20q…) = %v, want ErrSyntax", src, err)
		}
	}
}

// TestExprSharedAcrossGoroutines: an Expr is immutable after Parse, so the
// legs of one trader import evaluate it concurrently.
func TestExprSharedAcrossGoroutines(t *testing.T) {
	e, err := Parse("(cost < 20 and loc.city == 'brisbane') or exist missing")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if ok, err := e.Matches(props()); err != nil || !ok {
					t.Errorf("Matches = %v, %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

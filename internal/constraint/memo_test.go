package constraint

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/values"
)

// slotOf is src's memo slot.
func slotOf(src string) uint32 { return memoHash(src) & (memoSlots - 1) }

// sharingSlot returns a source, made by mk from some n > 0, whose memo slot
// is the one of src.
func sharingSlot(t *testing.T, src string, mk func(n int) string) string {
	t.Helper()
	for n := 1; n < 1<<20; n++ {
		if other := mk(n); other != src && slotOf(other) == slotOf(src) {
			return other
		}
	}
	t.Fatalf("no source shares %q's slot", src)
	return ""
}

// TestMemoMatchesFreshCompilation: over the reference test's seeded draws,
// drawn twice so the second pass meets what the first left in the memo
// (collisions included), Parse fails exactly when a fresh compilation
// does, and otherwise evaluates to the same value or error on every
// record.
func TestMemoMatchesFreshCompilation(t *testing.T) {
	for pass := 0; pass < 2; pass++ {
		g := exprGen{rand.New(rand.NewSource(1))}
		for i := 0; i < 5_000; i++ {
			matchesFresh(t, g, g.draw(), Parse)
		}
	}
}

// TestParseIntoMatchesFreshCompilation: the same draws, and an empty or a
// blank source now and then, parsed in turn into one lent buffer, so its
// program grows, shrinks and is left half-written by a syntax error before
// the next source is compiled over it. Each result fails exactly when a
// fresh compilation does and otherwise evaluates exactly as it does. The
// seed is one no other test draws from, so the first pass meets an empty
// memo; in either pass, over a thousand draws are first sights the memo
// leaves to the buffer.
func TestParseIntoMatchesFreshCompilation(t *testing.T) {
	var lent Expr
	compiled := 0
	into := func(src string) (*Expr, error) {
		e, err := ParseInto(&lent, src)
		if e == &lent {
			compiled++
		}
		return e, err
	}
	for pass := 0; pass < 2; pass++ {
		g := exprGen{rand.New(rand.NewSource(7))}
		for i := 0; i < 5_000; i++ {
			src := g.draw()
			switch g.r.Intn(40) {
			case 0:
				src = ""
			case 1:
				src = " \t "
			}
			matchesFresh(t, g, src, into)
		}
		if compiled < 1_000 {
			t.Errorf("pass %d compiled %d of 5,000 draws into the lent buffer", pass, compiled)
		}
		compiled = 0
	}
}

// draw is a seeded source as the reference test draws it: an expression,
// one in four of them mutated, mostly into a syntax error.
func (g exprGen) draw() string {
	src := g.expr(g.r.Intn(6))
	if g.r.Intn(4) == 0 {
		src = g.mutate(src)
	}
	return src
}

// matchesFresh checks parse(src) against a fresh compilation of src: the
// same error, or an Expr of src with the same program, which evaluates to
// the same value or error on each of four records g draws.
func matchesFresh(t *testing.T, g exprGen, src string, parse func(string) (*Expr, error)) {
	t.Helper()
	records := []values.Value{g.props(2), g.props(2), g.props(1), values.Record()}
	got, gerr := parse(src)
	want, werr := compileInto(new(Expr), src)
	if !sameErr(gerr, werr) {
		t.Fatalf("parse(%q) error = %v, fresh %v", src, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.String() != src {
		t.Fatalf("parse(%q).String() = %q", src, got.String())
	}
	if !slices.Equal(got.prog, want.prog) || got.root != want.root {
		t.Fatalf("parse(%q) = program %v rooted at %d, fresh %v at %d", src, got.prog, got.root, want.prog, want.root)
	}
	for _, props := range records {
		gv, gerr := got.Eval(props)
		wv, werr := want.Eval(props)
		if !sameErr(gerr, werr) || gerr == nil && !same(gv, wv) {
			t.Fatalf("Eval(%q) over %v = %v, %v; fresh %v, %v", src, props, gv, gerr, wv, werr)
		}
	}
}

// TestMemoSharedSlotRace: eight goroutines parse two sources that share a
// slot, so each overwrites the other's entry while the other reads it.
// Every Expr returned is the one of the source asked for. Run it under
// -race.
func TestMemoSharedSlotRace(t *testing.T) {
	const a = "1"
	b := sharingSlot(t, a, strconv.Itoa)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2_000; i++ {
				src := a
				if (g+i)%2 == 1 {
					src = b
				}
				e, err := Parse(src)
				if err != nil {
					t.Errorf("Parse(%q): %v", src, err)
					return
				}
				want, _ := strconv.ParseInt(src, 10, 64)
				if v, err := e.Eval(values.Record()); e.String() != src || err != nil || !v.Equal(values.Int(want)) {
					t.Errorf("Parse(%q) = %q evaluating to %v, %v", src, e.String(), v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoBound: a source of memoMaxLen bytes is kept on its second
// sight and one byte longer is compiled afresh on every call, and what a
// kept slot holds is within the package comment's bound — a 4-byte hash,
// a 48-byte Expr, the source, and at most one 40-byte node per byte of it,
// which the longest kept chain of one-byte operands reaches within a byte.
func TestMemoBound(t *testing.T) {
	if s := unsafe.Sizeof(missed[0]); s != 4 {
		t.Errorf("a missed hash is %d bytes, the bound says 4", s)
	}
	if s := unsafe.Sizeof(Expr{}); s != 48 {
		t.Errorf("an Expr is %d bytes, the bound says 48", s)
	}
	if s := unsafe.Sizeof(node{}); s != 40 {
		t.Errorf("a node is %d bytes, the bound says 40", s)
	}
	chain := strings.Repeat("1+", (memoMaxLen-1)/2) + "1"
	kept := chain + strings.Repeat(" ", memoMaxLen-len(chain))
	mustParse(t, kept)
	e1 := mustParse(t, kept)
	if e2 := mustParse(t, kept); e2 != e1 {
		t.Errorf("a %d-byte source was compiled three times", len(kept))
	}
	if n := cap(e1.prog); n > len(kept) || n < len(kept)-1 {
		t.Errorf("a %d-byte source kept %d nodes", len(kept), n)
	}
	long := kept + " "
	if e1, e2, e3 := mustParse(t, long), mustParse(t, long), mustParse(t, long); e1 == e2 || e2 == e3 {
		t.Errorf("a %d-byte source was kept", len(long))
	}
}

// TestMemoKeepsASecondSight: a source parsed once is compiled and not
// kept, so it leaves the source its slot holds in place; parsed a second
// time, it is kept and takes the slot.
func TestMemoKeepsASecondSight(t *testing.T) {
	const held = "load < 4217 and region == 'kept'"
	once := sharingSlot(t, held, func(n int) string { return "load < " + strconv.Itoa(n) })
	mustParse(t, held)
	h := mustParse(t, held)
	if memo[slotOf(held)].Load() != h {
		t.Fatalf("%q parsed twice is not kept", held)
	}
	e1 := mustParse(t, once)
	if memo[slotOf(once)].Load() != h || mustParse(t, held) != h {
		t.Errorf("%q parsed once displaced %q", once, held)
	}
	e2 := mustParse(t, once)
	if e2 == e1 {
		t.Errorf("%q parsed once was kept", once)
	}
	if memo[slotOf(once)].Load() != e2 || mustParse(t, once) != e2 {
		t.Errorf("%q parsed twice is not kept", once)
	}
	if h2 := mustParse(t, held); h2 == h {
		t.Errorf("%q kept its slot after %q took it", held, once)
	}
}

func mustParse(t *testing.T, src string) *Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

// TestMemoKeepsNoError: a syntax error is refused on every parse, and the
// refusal leaves the entry of the good source that shares its slot in
// place.
func TestMemoKeepsNoError(t *testing.T) {
	const good = "cost"
	bad := sharingSlot(t, good, func(n int) string { return "(" + strconv.Itoa(n) })
	mustParse(t, good)
	e := mustParse(t, good)
	for i := 0; i < 3; i++ {
		if got, err := Parse(bad); got != nil || !errors.Is(err, ErrSyntax) {
			t.Fatalf("Parse(%q) = %v, %v; want ErrSyntax", bad, got, err)
		}
	}
	if memo[slotOf(good)].Load() != e || mustParse(t, good) != e {
		t.Errorf("a refused source displaced %q from its slot", good)
	}
}

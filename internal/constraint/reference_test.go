package constraint

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/values"
)

// The reference model: the lexer, recursive-descent parser and tree
// evaluator the package had before an expression became one flat program,
// kept as they were but for the ref prefix on their names.
// TestParseMatchesReference and FuzzConstraint hold Parse, Eval, Matches
// and String to it.

type refExpr struct {
	root refNode
	src  string
}

func (e *refExpr) String() string { return e.src }

func refParse(src string) (*refExpr, error) {
	if strings.TrimSpace(src) == "" {
		return &refExpr{root: refAlwaysTrue, src: src}, nil
	}
	toks, err := refLex(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks, src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSyntax, p.toks[p.pos].text)
	}
	return &refExpr{root: root, src: src}, nil
}

var refAlwaysTrue refNode = refLitNode{values.Bool(true)}

func (e *refExpr) Eval(props values.Value) (values.Value, error) {
	return e.root.eval(props)
}

func (e *refExpr) Matches(props values.Value) (bool, error) {
	v, err := e.Eval(props)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("%w: constraint %q is not boolean (got %v)", ErrEval, e.src, v.Kind())
	}
	return b, nil
}

type refTokKind int

const (
	refTokIdent refTokKind = iota + 1
	refTokInt
	refTokFloat
	refTokString
	refTokOp
)

type refToken struct {
	kind refTokKind
	text string
}

func refLex(src string) ([]refToken, error) {
	toks := make([]refToken, 0, len(src))
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			j := i
			isFloat := false
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				if src[j] == '.' {
					if isFloat {
						return nil, fmt.Errorf("%w: bad number at %q", ErrSyntax, src[i:])
					}
					isFloat = true
				}
				j++
			}
			kind := refTokInt
			if isFloat {
				kind = refTokFloat
			}
			toks = append(toks, refToken{kind, src[i:j]})
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("%w: unterminated string", ErrSyntax)
			}
			toks = append(toks, refToken{refTokString, src[i+1 : j]})
			i = j + 1
		case refIsIdentStart(c):
			j := i
			for j < len(src) && refIsIdentPart(src[j]) {
				j++
			}
			toks = append(toks, refToken{refTokIdent, src[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=":
				toks = append(toks, refToken{refTokOp, two})
				i += 2
				continue
			}
			switch c {
			case '<', '>', '+', '-', '*', '/', '(', ')':
				toks = append(toks, refToken{refTokOp, src[i : i+1]})
				i++
			default:
				return nil, fmt.Errorf("%w: unexpected character %q", ErrSyntax, string(c))
			}
		}
	}
	return toks, nil
}

func refIsIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func refIsIdentPart(c byte) bool {
	return refIsIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

type refParser struct {
	toks []refToken
	pos  int
	src  string
}

func (p *refParser) peek() (refToken, bool) {
	if p.pos >= len(p.toks) {
		return refToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *refParser) acceptIdent(word string) bool {
	if t, ok := p.peek(); ok && t.kind == refTokIdent && t.text == word {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) acceptOp(ops ...string) (string, bool) {
	t, ok := p.peek()
	if !ok || t.kind != refTokOp {
		return "", false
	}
	for _, op := range ops {
		if t.text == op {
			p.pos++
			return op, true
		}
	}
	return "", false
}

func (p *refParser) parseOr() (refNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = refBoolNode{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *refParser) parseAnd() (refNode, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = refBoolNode{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *refParser) parseNot() (refNode, error) {
	if p.acceptIdent("not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return refNotNode{inner}, nil
	}
	return p.parseCmp()
}

func (p *refParser) parseCmp() (refNode, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if op, ok := p.acceptOp("==", "!=", "<=", ">=", "<", ">"); ok {
		right, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return refCmpNode{op: op, left: left, right: right}, nil
	}
	return left, nil
}

func (p *refParser) parseSum() (refNode, error) {
	left, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("+", "-")
		if !ok {
			return left, nil
		}
		right, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		left = refArithNode{op: op, left: left, right: right}
	}
}

func (p *refParser) parseProd() (refNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("*", "/")
		if !ok {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = refArithNode{op: op, left: left, right: right}
	}
}

func (p *refParser) parseUnary() (refNode, error) {
	if _, ok := p.acceptOp("-"); ok {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return refNegNode{inner}, nil
	}
	return p.parsePrimary()
}

func (p *refParser) parsePrimary() (refNode, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("%w: unexpected end of expression", ErrSyntax)
	}
	switch t.kind {
	case refTokInt:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return refLitNode{values.Int(n)}, nil
	case refTokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return refLitNode{values.Float(f)}, nil
	case refTokString:
		p.pos++
		return refLitNode{values.Str(t.text)}, nil
	case refTokIdent:
		switch t.text {
		case "true":
			p.pos++
			return refLitNode{values.Bool(true)}, nil
		case "false":
			p.pos++
			return refLitNode{values.Bool(false)}, nil
		case "exist":
			p.pos++
			name, ok := p.peek()
			if !ok || name.kind != refTokIdent {
				return nil, fmt.Errorf("%w: exist requires a property name", ErrSyntax)
			}
			p.pos++
			return refExistNode{path: name.text}, nil
		case "and", "or", "not":
			return nil, fmt.Errorf("%w: unexpected keyword %q", ErrSyntax, t.text)
		default:
			p.pos++
			return refIdentNode{path: t.text}, nil
		}
	case refTokOp:
		if t.text == "(" {
			p.pos++
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, ok := p.acceptOp(")"); !ok {
				return nil, fmt.Errorf("%w: missing closing parenthesis", ErrSyntax)
			}
			return inner, nil
		}
	}
	return nil, fmt.Errorf("%w: unexpected token %q", ErrSyntax, t.text)
}

type refNode interface {
	eval(props values.Value) (values.Value, error)
}

type refLitNode struct{ v values.Value }

func (n refLitNode) eval(values.Value) (values.Value, error) { return n.v, nil }

type refIdentNode struct{ path string }

func (n refIdentNode) eval(props values.Value) (values.Value, error) {
	v, ok := refLookup(props, n.path)
	if !ok {
		return values.Value{}, fmt.Errorf("%w: no property %q", ErrEval, n.path)
	}
	return v, nil
}

type refExistNode struct{ path string }

func (n refExistNode) eval(props values.Value) (values.Value, error) {
	_, ok := refLookup(props, n.path)
	return values.Bool(ok), nil
}

func refLookup(props values.Value, path string) (values.Value, bool) {
	cur := props
	for {
		seg, rest, dotted := strings.Cut(path, ".")
		next, ok := cur.FieldByName(seg)
		if !ok {
			return values.Value{}, false
		}
		if !dotted {
			return next, true
		}
		cur, path = next, rest
	}
}

type refNotNode struct{ inner refNode }

func (n refNotNode) eval(props values.Value) (values.Value, error) {
	v, err := n.inner.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	b, ok := v.AsBool()
	if !ok {
		return values.Value{}, fmt.Errorf("%w: 'not' requires a boolean", ErrEval)
	}
	return values.Bool(!b), nil
}

type refBoolNode struct {
	op          string
	left, right refNode
}

func (n refBoolNode) eval(props values.Value) (values.Value, error) {
	lv, err := n.left.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	lb, ok := lv.AsBool()
	if !ok {
		return values.Value{}, fmt.Errorf("%w: %q requires booleans", ErrEval, n.op)
	}
	// Short circuit.
	if n.op == "and" && !lb {
		return values.Bool(false), nil
	}
	if n.op == "or" && lb {
		return values.Bool(true), nil
	}
	rv, err := n.right.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	rb, ok := rv.AsBool()
	if !ok {
		return values.Value{}, fmt.Errorf("%w: %q requires booleans", ErrEval, n.op)
	}
	return values.Bool(rb), nil
}

type refCmpNode struct {
	op          string
	left, right refNode
}

func (n refCmpNode) eval(props values.Value) (values.Value, error) {
	lv, err := n.left.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	rv, err := n.right.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	if n.op == "==" || n.op == "!=" {
		// Equality is defined for every kind; ordering is not.
		if c, ok := values.Compare(lv, rv); ok {
			eq := c == 0
			if n.op == "!=" {
				eq = !eq
			}
			return values.Bool(eq), nil
		}
		eq := lv.Equal(rv)
		if n.op == "!=" {
			eq = !eq
		}
		return values.Bool(eq), nil
	}
	c, ok := values.Compare(lv, rv)
	if !ok {
		return values.Value{}, fmt.Errorf("%w: cannot order %v against %v", ErrEval, lv.Kind(), rv.Kind())
	}
	switch n.op {
	case "<":
		return values.Bool(c < 0), nil
	case "<=":
		return values.Bool(c <= 0), nil
	case ">":
		return values.Bool(c > 0), nil
	case ">=":
		return values.Bool(c >= 0), nil
	}
	return values.Value{}, fmt.Errorf("%w: unknown comparison %q", ErrEval, n.op)
}

type refNegNode struct{ inner refNode }

func (n refNegNode) eval(props values.Value) (values.Value, error) {
	v, err := n.inner.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	switch v.Kind() {
	case values.KindInt:
		i, _ := v.AsInt()
		return values.Int(-i), nil
	case values.KindFloat:
		f, _ := v.AsFloat()
		return values.Float(-f), nil
	}
	return values.Value{}, fmt.Errorf("%w: cannot negate %v", ErrEval, v.Kind())
}

type refArithNode struct {
	op          string
	left, right refNode
}

func (n refArithNode) eval(props values.Value) (values.Value, error) {
	lv, err := n.left.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	rv, err := n.right.eval(props)
	if err != nil {
		return values.Value{}, err
	}
	// String concatenation with "+".
	if n.op == "+" && lv.Kind() == values.KindString && rv.Kind() == values.KindString {
		ls, _ := lv.AsString()
		rs, _ := rv.AsString()
		return values.Str(ls + rs), nil
	}
	// Integer arithmetic when both sides are ints; float otherwise.
	if lv.Kind() == values.KindInt && rv.Kind() == values.KindInt {
		li, _ := lv.AsInt()
		ri, _ := rv.AsInt()
		switch n.op {
		case "+":
			return values.Int(li + ri), nil
		case "-":
			return values.Int(li - ri), nil
		case "*":
			return values.Int(li * ri), nil
		case "/":
			if ri == 0 {
				return values.Value{}, fmt.Errorf("%w: division by zero", ErrEval)
			}
			return values.Int(li / ri), nil
		}
	}
	lf, lok := AsFloat(lv)
	rf, rok := AsFloat(rv)
	if !lok || !rok {
		return values.Value{}, fmt.Errorf("%w: arithmetic on %v and %v", ErrEval, lv.Kind(), rv.Kind())
	}
	switch n.op {
	case "+":
		return values.Float(lf + rf), nil
	case "-":
		return values.Float(lf - rf), nil
	case "*":
		return values.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return values.Value{}, fmt.Errorf("%w: division by zero", ErrEval)
		}
		return values.Float(lf / rf), nil
	}
	return values.Value{}, fmt.Errorf("%w: unknown operator %q", ErrEval, n.op)
}

// ---------------------------------------------------------------------------
// the differential test

// exprGen draws expressions over the whole grammar, and property records
// to evaluate them against.
type exprGen struct{ r *rand.Rand }

func (g exprGen) pick(s ...string) string { return s[g.r.Intn(len(s))] }

// ws is the space between two tokens: mostly one blank, sometimes other
// whitespace, sometimes none (which can fuse two tokens into one).
func (g exprGen) ws() string {
	if g.r.Intn(8) > 0 {
		return " "
	}
	return g.pick("", "  ", "\t", "\n", "\r\n")
}

func (g exprGen) path() string {
	return g.pick("cost", "rate", "name", "fast", "n", "loc", "loc.city", "loc.zip",
		"loc.city.zip", "loc.geo.lat", "missing", "missing.x", "_u", "b", "e", "s", "x1")
}

func (g exprGen) literal() string {
	switch g.r.Intn(5) {
	case 0:
		return g.pick("0", "1", "2", "10", "42", "007", "9223372036854775807", "99999999999999999999")
	case 1:
		return g.pick("0.0", "2.5", "1.", "10.0", "3.14", "0.5", "1"+strings.Repeat("0", 320)+".0")
	case 2:
		return g.pick("'acme'", `"acme"`, "''", "'brisbane'", `"a b"`, "'!'", `'x"y'`)
	case 3:
		return g.pick("true", "false")
	}
	return g.path()
}

var (
	genCmp    = []string{"==", "!=", "<", "<=", ">", ">="}
	genChain  = []string{"or", "and", "+", "-", "*", "/"}
	genPrefix = []string{"not ", "-", "not not ", "- -", "--"}
)

// expr draws an expression nested at most d deep.
func (g exprGen) expr(d int) string {
	if d <= 0 {
		return g.literal()
	}
	switch g.r.Intn(10) {
	case 0, 1: // a chain of one operator, or of several
		n := 2 + g.r.Intn(4)
		op := g.pick(genChain...)
		parts := []string{g.expr(d - 1)}
		for i := 1; i < n; i++ {
			if g.r.Intn(3) == 0 {
				op = g.pick(genChain...)
			}
			parts = append(parts, g.ws()+op+g.ws()+g.expr(d-1))
		}
		return strings.Join(parts, "")
	case 2, 3:
		return g.expr(d-1) + g.ws() + g.pick(genCmp...) + g.ws() + g.expr(d-1)
	case 4:
		return g.pick(genPrefix...) + g.expr(d-1)
	case 5:
		return "(" + g.ws() + g.expr(d-1) + g.ws() + ")"
	case 6:
		return "exist " + g.path()
	}
	return g.literal()
}

// mutate breaks a source: bytes dropped, inserted or the tail cut.
func (g exprGen) mutate(src string) string {
	const junk = "()'\"@.!=<>+-*/ 0a#"
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		i := 0
		if len(src) > 0 {
			i = g.r.Intn(len(src) + 1)
		}
		switch g.r.Intn(3) {
		case 0:
			if i < len(src) {
				src = src[:i] + src[i+1:]
			}
		case 1:
			src = src[:i] + string(junk[g.r.Intn(len(junk))]) + src[i:]
		default:
			src = src[:i]
		}
	}
	return src
}

// value draws a value of a random kind: the properties a constraint meets
// are not always the kinds it expects. Numbers are drawn from a few shared
// values, so an int, a uint and a float are often equal.
func (g exprGen) value(d int) values.Value {
	small := []int64{0, 1, 2, 10, 42}
	switch g.r.Intn(11) {
	case 0:
		return values.Int(small[g.r.Intn(len(small))] * (1 - 2*g.r.Int63n(2)))
	case 1:
		return values.Int(math.MaxInt64 - g.r.Int63n(2))
	case 2:
		return values.Float([]float64{0, 1, 2.5, 10, -1.5, math.NaN(), math.Inf(1)}[g.r.Intn(7)])
	case 3:
		return values.Str(g.pick("acme", "brisbane", "", "a b"))
	case 4:
		return values.Bool(g.r.Intn(2) == 0)
	case 5:
		return values.Uint(uint64(small[g.r.Intn(len(small))]))
	case 6:
		return values.BytesVal([]byte("acme"))
	case 7:
		return values.Enum("acme")
	case 8:
		return values.Null()
	case 9:
		return values.Seq(values.Int(1), values.Str("x"))
	}
	if d > 0 {
		return g.props(d - 1)
	}
	return values.Int(10)
}

// props draws a property record; each name is missing one time in four.
func (g exprGen) props(d int) values.Value {
	var fields []values.Field
	for _, name := range []string{"cost", "rate", "name", "fast", "n", "_u", "b", "e", "s", "x1", "city", "zip", "lat"} {
		if g.r.Intn(4) > 0 {
			fields = append(fields, values.F(name, g.value(d)))
		}
	}
	if d > 0 && g.r.Intn(4) > 0 {
		fields = append(fields, values.F("loc", g.props(d-1)))
	}
	return values.Record(fields...)
}

// same is Equal, but a NaN is the same as a NaN.
func same(a, b values.Value) bool {
	return a.Kind() == b.Kind() && (a.Equal(b) || a.String() == b.String())
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrSyntax) == errors.Is(b, ErrSyntax) &&
		errors.Is(a, ErrEval) == errors.Is(b, ErrEval)
}

// agree holds one source's parse, and its evaluation against each record,
// to the reference's. It returns the errors met, and the parse.
func agree(t *testing.T, src string, records []values.Value) (*Expr, []error) {
	t.Helper()
	got, gerr := Parse(src)
	want, werr := refParse(src)
	if !sameErr(gerr, werr) {
		t.Fatalf("Parse(%q) error = %v, reference %v", src, gerr, werr)
	}
	if gerr != nil {
		return nil, []error{gerr}
	}
	if got.String() != src || want.String() != src {
		t.Fatalf("String() = %q, want %q", got.String(), src)
	}
	var errs []error
	for _, props := range records {
		gv, gerr := got.Eval(props)
		wv, werr := want.Eval(props)
		if !sameErr(gerr, werr) || gerr == nil && !same(gv, wv) {
			t.Fatalf("Eval(%q) over %v = %v, %v; reference %v, %v", src, props, gv, gerr, wv, werr)
		}
		gm, gerr := got.Matches(props)
		wm, werr := want.Matches(props)
		if !sameErr(gerr, werr) || gm != wm {
			t.Fatalf("Matches(%q) over %v = %v, %v; reference %v, %v", src, props, gm, gerr, wm, werr)
		}
		if gerr != nil {
			errs = append(errs, gerr)
		}
	}
	return got, errs
}

// TestParseMatchesReference: over seeded draws of the whole grammar, broken
// ones among them, Parse agrees with the reference on success, on every
// error's message and sentinel, and the program agrees with the tree on
// every value and every error. The draws are checked to reach every node
// kind and every error message the language has.
func TestParseMatchesReference(t *testing.T) {
	g := exprGen{rand.New(rand.NewSource(1))}
	ops := map[opcode]bool{}
	msgs := map[string]bool{}
	for i := 0; i < 10_000; i++ {
		src := g.expr(g.r.Intn(6))
		if g.r.Intn(4) == 0 {
			src = g.mutate(src)
		}
		records := []values.Value{g.props(2), g.props(2), g.props(1), values.Record()}
		e, errs := agree(t, src, records)
		if e != nil {
			for _, n := range e.prog {
				ops[n.op] = true
			}
		}
		for _, err := range errs {
			msgs[err.Error()] = true
		}
	}
	for op := opInt; op <= opDiv; op++ {
		if !ops[op] {
			t.Errorf("no draw compiled to opcode %d", op)
		}
	}
	for _, want := range []string{
		"bad number at", "unterminated string", "unexpected character", "trailing input at",
		"unexpected end of expression", "unexpected keyword", "exist requires a property name",
		"missing closing parenthesis", "unexpected token", "value out of range",
		"no property", "'not' requires a boolean", `"and" requires booleans`, `"or" requires booleans`,
		"cannot order", "cannot negate", "division by zero", "arithmetic on", "is not boolean",
	} {
		found := false
		for m := range msgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no draw met the error %q", want)
		}
	}
}

// FuzzConstraint holds any source under the bounds to the reference, as
// TestParseMatchesReference does its draws.
func FuzzConstraint(f *testing.F) {
	for _, seed := range []string{
		"", "cost == 10", "(load < 42 or load > 57) and region != 'fr'", "not not fast",
		"- -cost * 2 / 0", "exist loc.city and loc.city + '!' == 'brisbane!'", "1.2.3", "'x", "@",
		"false and 1/0 == 1", "name < 10", "cost 10", "(1", "exist 42", "9223372036854775808",
	} {
		f.Add(seed)
	}
	g := exprGen{rand.New(rand.NewSource(1))}
	records := []values.Value{g.props(2), g.props(2), g.props(1), values.Record()}
	f.Fuzz(func(t *testing.T, src string) {
		// Each node takes a byte, so these two keep the source under the
		// bounds; beyond them Parse refuses what the reference accepts.
		if len(src) > maxNodes || strings.Count(src, "(") > maxDepth {
			t.Skip()
		}
		agree(t, src, records)
	})
}

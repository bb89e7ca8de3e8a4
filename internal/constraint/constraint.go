// Package constraint implements the small expression language shared by
// the ODP trading function (import constraints and preferences,
// Section 8.3.2 of the tutorial) and the enterprise viewpoint's policy
// conditions (Section 3). Expressions are evaluated against a record of
// named properties.
//
// The grammar:
//
//	expr    := or
//	or      := and ("or" and)*
//	and     := not ("and" not)*
//	not     := "not" not | cmp
//	cmp     := sum (("=="|"!="|"<"|"<="|">"|">=") sum)?
//	sum     := prod (("+"|"-") prod)*
//	prod    := unary (("*"|"/") unary)*
//	unary   := "-" unary | primary
//	primary := int | float | string | "true" | "false" |
//	           "exist" ident | ident | "(" expr ")"
//
// Identifiers name properties; dotted identifiers (a.b) descend into
// record-valued properties. Comparisons follow values.Compare, so ints,
// uints and floats compare across kinds and strings compare
// lexicographically.
package constraint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/values"
)

// Constraint error sentinels.
var (
	ErrSyntax = errors.New("constraint: syntax error")
	ErrEval   = errors.New("constraint: evaluation error")
)

// Expr is a parsed constraint or preference expression.
type Expr struct {
	root node
	src  string
}

// String returns the original source text.
func (e *Expr) String() string { return e.src }

// Parse compiles a constraint expression. An empty string parses to the
// always-true constraint.
func Parse(src string) (*Expr, error) {
	if strings.TrimSpace(src) == "" {
		return &Expr{root: alwaysTrue, src: src}, nil
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSyntax, p.toks[p.pos].text)
	}
	return &Expr{root: root, src: src}, nil
}

// alwaysTrue is the root of every empty constraint: nodes are immutable.
var alwaysTrue node = litNode{values.Bool(true)}

// Eval evaluates the expression against a property record.
func (e *Expr) Eval(props values.Value) (values.Value, error) {
	return e.root.eval(props)
}

// Matches evaluates the expression and requires a boolean result.
func (e *Expr) Matches(props values.Value) (bool, error) {
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

// ---------------------------------------------------------------------------
// lexer

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokInt
	tokFloat
	tokString
	tokOp // punctuation operators
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)) // a token is at least one byte long
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
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[i:j]})
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
			toks = append(toks, token{tokString, src[i+1 : j]})
			i = j + 1
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=":
				toks = append(toks, token{tokOp, two})
				i += 2
				continue
			}
			switch c {
			case '<', '>', '+', '-', '*', '/', '(', ')':
				toks = append(toks, token{tokOp, src[i : i+1]})
				i++
			default:
				return nil, fmt.Errorf("%w: unexpected character %q", ErrSyntax, string(c))
			}
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// ---------------------------------------------------------------------------
// parser

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) acceptIdent(word string) bool {
	if t, ok := p.peek(); ok && t.kind == tokIdent && t.text == word {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptOp(ops ...string) (string, bool) {
	t, ok := p.peek()
	if !ok || t.kind != tokOp {
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

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = boolNode{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = boolNode{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (node, error) {
	if p.acceptIdent("not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notNode{inner}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if op, ok := p.acceptOp("==", "!=", "<=", ">=", "<", ">"); ok {
		right, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return cmpNode{op: op, left: left, right: right}, nil
	}
	return left, nil
}

func (p *parser) parseSum() (node, error) {
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
		left = arithNode{op: op, left: left, right: right}
	}
}

func (p *parser) parseProd() (node, error) {
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
		left = arithNode{op: op, left: left, right: right}
	}
}

func (p *parser) parseUnary() (node, error) {
	if _, ok := p.acceptOp("-"); ok {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negNode{inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("%w: unexpected end of expression", ErrSyntax)
	}
	switch t.kind {
	case tokInt:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return litNode{values.Int(n)}, nil
	case tokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return litNode{values.Float(f)}, nil
	case tokString:
		p.pos++
		return litNode{values.Str(t.text)}, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.pos++
			return litNode{values.Bool(true)}, nil
		case "false":
			p.pos++
			return litNode{values.Bool(false)}, nil
		case "exist":
			p.pos++
			name, ok := p.peek()
			if !ok || name.kind != tokIdent {
				return nil, fmt.Errorf("%w: exist requires a property name", ErrSyntax)
			}
			p.pos++
			return existNode{path: name.text}, nil
		case "and", "or", "not":
			return nil, fmt.Errorf("%w: unexpected keyword %q", ErrSyntax, t.text)
		default:
			p.pos++
			return identNode{path: t.text}, nil
		}
	case tokOp:
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

// ---------------------------------------------------------------------------
// evaluation

type node interface {
	eval(props values.Value) (values.Value, error)
}

type litNode struct{ v values.Value }

func (n litNode) eval(values.Value) (values.Value, error) { return n.v, nil }

// identNode names a property; a dotted path (a.b) is kept as written and
// walked segment by segment at evaluation.
type identNode struct{ path string }

func (n identNode) eval(props values.Value) (values.Value, error) {
	v, ok := lookup(props, n.path)
	if !ok {
		return values.Value{}, fmt.Errorf("%w: no property %q", ErrEval, n.path)
	}
	return v, nil
}

type existNode struct{ path string }

func (n existNode) eval(props values.Value) (values.Value, error) {
	_, ok := lookup(props, n.path)
	return values.Bool(ok), nil
}

func lookup(props values.Value, path string) (values.Value, bool) {
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

type notNode struct{ inner node }

func (n notNode) eval(props values.Value) (values.Value, error) {
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

type boolNode struct {
	op          string
	left, right node
}

func (n boolNode) eval(props values.Value) (values.Value, error) {
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

type cmpNode struct {
	op          string
	left, right node
}

func (n cmpNode) eval(props values.Value) (values.Value, error) {
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

type negNode struct{ inner node }

func (n negNode) eval(props values.Value) (values.Value, error) {
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

type arithNode struct {
	op          string
	left, right node
}

func (n arithNode) eval(props values.Value) (values.Value, error) {
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

// AsFloat widens a numeric value to float64; ok is false for
// non-numeric kinds. Exported for preference scoring in the trader.
func AsFloat(v values.Value) (float64, bool) {
	switch v.Kind() {
	case values.KindInt:
		i, _ := v.AsInt()
		return float64(i), true
	case values.KindUint:
		u, _ := v.AsUint()
		return float64(u), true
	case values.KindFloat:
		f, _ := v.AsFloat()
		return f, true
	}
	return 0, false
}

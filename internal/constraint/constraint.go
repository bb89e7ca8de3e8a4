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
//
// An expression is bounded: at most 4,096 operators and operands, and
// parentheses nested at most 32 deep. Parse refuses a larger one with
// ErrSyntax before it builds anything, so an expression that arrives off
// the wire costs at most that much to parse and to evaluate.
package constraint

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/values"
)

// The bounds of an expression. Parsing and evaluation recurse once per
// level of parentheses, through a fixed number of grammar levels; a chain
// (a or b or c, a + b - c) and a run of prefix operators (not not a) are
// walked in a loop, so neither counts towards the depth.
const (
	maxNodes = 4096 // operators and operands
	maxDepth = 32   // parentheses open at once
)

// Constraint error sentinels.
var (
	ErrSyntax = errors.New("constraint: syntax error")
	ErrEval   = errors.New("constraint: evaluation error")
)

// Expr is a parsed constraint or preference expression.
type Expr struct {
	// One flat program, immutable once parsed, so the legs of one import
	// evaluate it concurrently.
	src  string
	prog []node // nil for the empty, always-true constraint
	root int32  // the node the program's value is
}

// String returns the original source text.
func (e *Expr) String() string { return e.src }

// Parse compiles a constraint expression. An empty string parses to the
// always-true constraint.
func Parse(src string) (*Expr, error) {
	if strings.TrimSpace(src) == "" {
		return &Expr{src: src}, nil
	}
	// A first pass lexes the whole source, so a lexical error anywhere is
	// reported before any grammatical one, and counts the nodes; the parse
	// then fills a program of that size, lexing again as it goes.
	n, err := measure(src)
	if err != nil {
		return nil, err
	}
	p := parser{src: src, prog: make([]node, 0, n)}
	p.next()
	root, err := p.parse(orLevel)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEnd {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSyntax, p.text())
	}
	return &Expr{src: src, prog: p.prog, root: root}, nil
}

// Eval evaluates the expression against a property record.
func (e *Expr) Eval(props values.Value) (values.Value, error) {
	if e.prog == nil {
		return values.Bool(true), nil
	}
	return e.eval(e.root, props)
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

type tokKind uint8

const (
	tokEnd tokKind = iota // past the last token
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp // punctuation operators
)

// token is one lexeme: its text is src[at:end], a string literal's without
// its quotes.
type token struct {
	kind    tokKind
	at, end int
}

// scan lexes the token that starts at or after src[i], and returns where
// the next scan starts.
func scan(src string, i int) (token, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return token{tokEnd, i, i}, i, nil
	}
	c := src[i]
	switch {
	case c >= '0' && c <= '9':
		j := i
		isFloat := false
		for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
			if src[j] == '.' {
				if isFloat {
					return token{}, 0, fmt.Errorf("%w: bad number at %q", ErrSyntax, src[i:])
				}
				isFloat = true
			}
			j++
		}
		kind := tokInt
		if isFloat {
			kind = tokFloat
		}
		return token{kind, i, j}, j, nil
	case c == '\'' || c == '"':
		j := i + 1
		for j < len(src) && src[j] != c {
			j++
		}
		if j >= len(src) {
			return token{}, 0, fmt.Errorf("%w: unterminated string", ErrSyntax)
		}
		return token{tokString, i + 1, j}, j + 1, nil
	case isIdentStart(c):
		j := i
		for j < len(src) && isIdentPart(src[j]) {
			j++
		}
		return token{tokIdent, i, j}, j, nil
	}
	if i+1 < len(src) {
		switch src[i : i+2] {
		case "==", "!=", "<=", ">=":
			return token{tokOp, i, i + 2}, i + 2, nil
		}
	}
	switch c {
	case '<', '>', '+', '-', '*', '/', '(', ')':
		return token{tokOp, i, i + 1}, i + 1, nil
	}
	return token{}, 0, fmt.Errorf("%w: unexpected character %q", ErrSyntax, string(c))
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// measure is Parse's first pass: it lexes the whole source, refuses one
// beyond the bounds, and returns how many nodes its program can have — at
// most one per token but the parentheses, which make none.
func measure(src string) (nodes int, err error) {
	depth := 0
	for i := 0; ; {
		var t token
		if t, i, err = scan(src, i); err != nil || t.kind == tokEnd {
			return nodes, err
		}
		switch text := src[t.at:t.end]; {
		case t.kind == tokOp && text == "(":
			if depth++; depth > maxDepth {
				return 0, fmt.Errorf("%w: parentheses nested deeper than %d", ErrSyntax, maxDepth)
			}
		case t.kind == tokOp && text == ")":
			depth = max(depth-1, 0)
		default:
			if nodes++; nodes > maxNodes {
				return 0, fmt.Errorf("%w: more than %d operators and operands", ErrSyntax, maxNodes)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// parser

// opcode is what a node computes.
type opcode uint8

const (
	opInt opcode = iota + 1
	opFloat
	opBool
	opStr
	opIdent
	opExist
	opNot // a run of num nots
	opNeg // a run of num unary minuses
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opOr // a link of a left-associative chain, like every opcode after it
	opAnd
	opAdd
	opSub
	opMul
	opDiv
)

// opText is the token an operator is written as.
var opText = [...]string{
	opNot: "not", opNeg: "-",
	opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opOr: "or", opAnd: "and", opAdd: "+", opSub: "-", opMul: "*", opDiv: "/",
}

// node is one instruction of a program. Operands are indices of other
// nodes, which the parse writes first.
//
// A chain — a or b or c, a + b - c — is one link per operator: the first
// link holds the chain's first operand in a and its own right operand in
// b, each later link only its right operand in b, and next leads from one
// link to the one after (0 ends the chain: node 0 is always an operand).
// The chain evaluates left to right, exactly as the left-nested pairs it
// stands for.
type node struct {
	op   opcode
	a, b int32  // operands: left and right, or a prefix run's one in a
	next int32  // a chain link's successor
	num  uint64 // an int's or a float's bits, a bool, a prefix run's length
	str  string // a string literal, or a property path as written
}

// parser builds a program over a source measure has lexed, so lexing
// again cannot fail.
type parser struct {
	src  string
	pos  int   // where the token after tok starts
	tok  token // the lookahead
	prog []node
}

func (p *parser) next() { p.tok, p.pos, _ = scan(p.src, p.pos) }

func (p *parser) text() string { return p.src[p.tok.at:p.tok.end] }

// accept consumes the lookahead if it is the token one of ops is written
// as, and says which.
func (p *parser) accept(ops ...opcode) (opcode, bool) {
	for _, op := range ops {
		kind := tokOp
		if op == opOr || op == opAnd || op == opNot {
			kind = tokIdent
		}
		if p.tok.kind == kind && p.text() == opText[op] {
			p.next()
			return op, true
		}
	}
	return 0, false
}

func (p *parser) emit(n node) int32 {
	p.prog = append(p.prog, n)
	return int32(len(p.prog) - 1)
}

// level is a rung of the grammar, loosest first; each parses the next.
type level uint8

const (
	orLevel level = iota
	andLevel
	notLevel
	cmpLevel
	sumLevel
	prodLevel
	unaryLevel
	primaryLevel
)

func (p *parser) parse(l level) (int32, error) {
	switch l {
	case orLevel:
		return p.chain(andLevel, opOr)
	case andLevel:
		return p.chain(notLevel, opAnd)
	case notLevel:
		return p.prefix(opNot, cmpLevel)
	case cmpLevel:
		return p.parseCmp()
	case sumLevel:
		return p.chain(prodLevel, opAdd, opSub)
	case prodLevel:
		return p.chain(unaryLevel, opMul, opDiv)
	case unaryLevel:
		return p.prefix(opNeg, primaryLevel)
	}
	return p.parsePrimary()
}

// chain parses operand (op operand)*, op one of ops: a chain of links, or
// the lone operand.
func (p *parser) chain(operand level, ops ...opcode) (int32, error) {
	first, err := p.parse(operand)
	if err != nil {
		return 0, err
	}
	head, last := first, int32(0)
	for {
		op, ok := p.accept(ops...)
		if !ok {
			return head, nil
		}
		right, err := p.parse(operand)
		if err != nil {
			return 0, err
		}
		at := p.emit(node{op: op, a: first, b: right})
		if last == 0 {
			head = at
		} else {
			p.prog[last].next = at
		}
		last = at
	}
}

// prefix parses op* operand: one node for the whole run of ops, or the
// lone operand.
func (p *parser) prefix(op opcode, operand level) (int32, error) {
	var run uint64
	for ; ; run++ {
		if _, ok := p.accept(op); !ok {
			break
		}
	}
	inner, err := p.parse(operand)
	if err != nil || run == 0 {
		return inner, err
	}
	return p.emit(node{op: op, a: inner, num: run}), nil
}

func (p *parser) parseCmp() (int32, error) {
	left, err := p.parse(sumLevel)
	if err != nil {
		return 0, err
	}
	if op, ok := p.accept(opEq, opNe, opLe, opGe, opLt, opGt); ok {
		right, err := p.parse(sumLevel)
		if err != nil {
			return 0, err
		}
		return p.emit(node{op: op, a: left, b: right}), nil
	}
	return left, nil
}

func (p *parser) parsePrimary() (int32, error) {
	text := p.text()
	switch p.tok.kind {
	case tokEnd:
		return 0, fmt.Errorf("%w: unexpected end of expression", ErrSyntax)
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return p.emit(node{op: opInt, num: uint64(n)}), nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return p.emit(node{op: opFloat, num: math.Float64bits(f)}), nil
	case tokString:
		p.next()
		return p.emit(node{op: opStr, str: text}), nil
	case tokIdent:
		switch text {
		case "true", "false":
			p.next()
			n := node{op: opBool}
			if text == "true" {
				n.num = 1
			}
			return p.emit(n), nil
		case "exist":
			p.next()
			if p.tok.kind != tokIdent {
				return 0, fmt.Errorf("%w: exist requires a property name", ErrSyntax)
			}
			path := p.text()
			p.next()
			return p.emit(node{op: opExist, str: path}), nil
		case "and", "or", "not":
			return 0, fmt.Errorf("%w: unexpected keyword %q", ErrSyntax, text)
		default:
			p.next()
			return p.emit(node{op: opIdent, str: text}), nil
		}
	case tokOp:
		if text == "(" {
			p.next()
			inner, err := p.parse(orLevel)
			if err != nil {
				return 0, err
			}
			if p.tok.kind != tokOp || p.text() != ")" {
				return 0, fmt.Errorf("%w: missing closing parenthesis", ErrSyntax)
			}
			p.next()
			return inner, nil
		}
	}
	return 0, fmt.Errorf("%w: unexpected token %q", ErrSyntax, text)
}

// ---------------------------------------------------------------------------
// evaluation

// eval computes node i of the program.
func (e *Expr) eval(i int32, props values.Value) (values.Value, error) {
	n := &e.prog[i]
	switch n.op {
	case opInt:
		return values.Int(int64(n.num)), nil
	case opFloat:
		return values.Float(math.Float64frombits(n.num)), nil
	case opBool:
		return values.Bool(n.num != 0), nil
	case opStr:
		return values.Str(n.str), nil
	case opIdent:
		v, ok := lookup(props, n.str)
		if !ok {
			return values.Value{}, fmt.Errorf("%w: no property %q", ErrEval, n.str)
		}
		return v, nil
	case opExist:
		_, ok := lookup(props, n.str)
		return values.Bool(ok), nil
	case opNot:
		v, err := e.eval(n.a, props)
		if err != nil {
			return values.Value{}, err
		}
		b, ok := v.AsBool()
		if !ok {
			return values.Value{}, fmt.Errorf("%w: 'not' requires a boolean", ErrEval)
		}
		return values.Bool(b != (n.num%2 == 1)), nil
	case opNeg:
		v, err := e.eval(n.a, props)
		if err != nil {
			return values.Value{}, err
		}
		return negate(v, n.num%2 == 1)
	case opEq, opNe, opLt, opLe, opGt, opGe:
		lv, err := e.eval(n.a, props)
		if err != nil {
			return values.Value{}, err
		}
		rv, err := e.eval(n.b, props)
		if err != nil {
			return values.Value{}, err
		}
		return compare(n.op, lv, rv)
	}
	return e.chain(i, props)
}

// chain evaluates the chain whose first link is node i.
func (e *Expr) chain(i int32, props values.Value) (values.Value, error) {
	v, err := e.eval(e.prog[i].a, props)
	for ; err == nil && i != 0; i = e.prog[i].next {
		n := &e.prog[i]
		if n.op == opOr || n.op == opAnd {
			lb, ok := v.AsBool()
			if !ok {
				return values.Value{}, fmt.Errorf("%w: %q requires booleans", ErrEval, opText[n.op])
			}
			// Short circuit: the rest of the chain is decided too.
			if n.op == opAnd && !lb {
				return values.Bool(false), nil
			}
			if n.op == opOr && lb {
				return values.Bool(true), nil
			}
			var rv values.Value
			if rv, err = e.eval(n.b, props); err != nil {
				break
			}
			rb, ok := rv.AsBool()
			if !ok {
				return values.Value{}, fmt.Errorf("%w: %q requires booleans", ErrEval, opText[n.op])
			}
			v = values.Bool(rb)
			continue
		}
		var rv values.Value
		if rv, err = e.eval(n.b, props); err == nil {
			v, err = arith(n.op, v, rv)
		}
	}
	if err != nil {
		return values.Value{}, err
	}
	return v, nil
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

// negate checks that v can be negated and, when odd, does.
func negate(v values.Value, odd bool) (values.Value, error) {
	switch v.Kind() {
	case values.KindInt:
		if i, _ := v.AsInt(); odd {
			return values.Int(-i), nil
		}
		return v, nil
	case values.KindFloat:
		if f, _ := v.AsFloat(); odd {
			return values.Float(-f), nil
		}
		return v, nil
	}
	return values.Value{}, fmt.Errorf("%w: cannot negate %v", ErrEval, v.Kind())
}

func compare(op opcode, lv, rv values.Value) (values.Value, error) {
	c, ok := values.Compare(lv, rv)
	if op == opEq || op == opNe {
		// Equality is defined for every kind; ordering is not.
		eq := ok && c == 0 || !ok && lv.Equal(rv)
		return values.Bool(eq != (op == opNe)), nil
	}
	if !ok {
		return values.Value{}, fmt.Errorf("%w: cannot order %v against %v", ErrEval, lv.Kind(), rv.Kind())
	}
	switch op {
	case opLt:
		return values.Bool(c < 0), nil
	case opLe:
		return values.Bool(c <= 0), nil
	case opGt:
		return values.Bool(c > 0), nil
	}
	return values.Bool(c >= 0), nil
}

func arith(op opcode, lv, rv values.Value) (values.Value, error) {
	// String concatenation with "+".
	if op == opAdd && lv.Kind() == values.KindString && rv.Kind() == values.KindString {
		ls, _ := lv.AsString()
		rs, _ := rv.AsString()
		return values.Str(ls + rs), nil
	}
	// Integer arithmetic when both sides are ints; float otherwise.
	if lv.Kind() == values.KindInt && rv.Kind() == values.KindInt {
		li, _ := lv.AsInt()
		ri, _ := rv.AsInt()
		switch op {
		case opAdd:
			return values.Int(li + ri), nil
		case opSub:
			return values.Int(li - ri), nil
		case opMul:
			return values.Int(li * ri), nil
		}
		if ri == 0 {
			return values.Value{}, fmt.Errorf("%w: division by zero", ErrEval)
		}
		return values.Int(li / ri), nil
	}
	lf, lok := AsFloat(lv)
	rf, rok := AsFloat(rv)
	if !lok || !rok {
		return values.Value{}, fmt.Errorf("%w: arithmetic on %v and %v", ErrEval, lv.Kind(), rv.Kind())
	}
	switch op {
	case opAdd:
		return values.Float(lf + rf), nil
	case opSub:
		return values.Float(lf - rf), nil
	case opMul:
		return values.Float(lf * rf), nil
	}
	if rf == 0 {
		return values.Value{}, fmt.Errorf("%w: division by zero", ErrEval)
	}
	return values.Float(lf / rf), nil
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

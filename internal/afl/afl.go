// Package afl implements a frontend for AFL, SciDB's Array Functional
// Language. The paper's SciDB implementations are written in AQL/AFL
// (Section 4.1: Step 1N in AFL via SciDB-py, co-addition in 180 lines of
// AQL); this package parses the functional operator-composition syntax
// and evaluates it against the internal/scidb engine:
//
//	scan(A)                      → stored-array lookup
//	filter(E, dim < n)           → native selection; a predicate over a
//	                               chunk-aligned dimension drops whole
//	                               chunks, others pay reorganization
//	                               (Fig 12a)
//	aggregate(E, k(...), d, …)   → native grouped aggregate over the
//	                               listed dimensions (Fig 12b)
//	apply(E, k)                  → native per-chunk operator
//	iterate(E, n, k)             → n AQL iterations, each materialized
//	                               (Fig 12d)
//	store(E, Name)               → program output
//
// That is the grammar the paper's programs use (neuro.RunSciDBAFL and
// astro.RunAFLCoadd); anything else is a line-numbered parse or
// operator error. Statements are separated by semicolons and evaluated
// in order. Kernel
// names bind to registered Go functions carrying both the real
// computation and the calibrated cost operation, mirroring how AFL
// operators name built-in C++ kernels.
package afl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Expr is a parsed AFL expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// Call is an operator application: fn(args...).
type Call struct {
	Line int
	Fn   string
	Args []Expr
}

func (c *Call) expr() {}
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// Ident is a bare identifier: an array name, dimension, or kernel name.
type Ident struct {
	Line int
	Name string
}

func (i *Ident) expr()          {}
func (i *Ident) String() string { return i.Name }

// Num is a numeric literal.
type Num struct {
	Line int
	V    float64
}

func (n *Num) expr()          {}
func (n *Num) String() string { return strconv.FormatFloat(n.V, 'f', -1, 64) }

// Cmp is a filter predicate: left < right.
type Cmp struct {
	Left, Right Expr
}

func (c *Cmp) expr()          {}
func (c *Cmp) String() string { return fmt.Sprintf("%s < %s", c.Left, c.Right) }

// --- lexer ---------------------------------------------------------------

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tLParen
	tRParen
	tComma
	tSemi
	tLess
)

type tok struct {
	kind tokKind
	text string
	line int
}

func lex(src string) ([]tok, error) {
	var out []tok
	line := 1
	rs := []rune(src)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case r == '\n':
			line++
			i++
		case unicode.IsSpace(r):
			i++
		case r == '-' && i+1 < len(rs) && rs[i+1] == '-':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case unicode.IsLetter(r) || r == '_':
			start := i
			for i < len(rs) && (unicode.IsLetter(rs[i]) || unicode.IsDigit(rs[i]) || rs[i] == '_') {
				i++
			}
			out = append(out, tok{tIdent, string(rs[start:i]), line})
		case unicode.IsDigit(r):
			start := i
			for i < len(rs) && (unicode.IsDigit(rs[i]) || rs[i] == '.' || rs[i] == 'e' || rs[i] == '-' && i > start && (rs[i-1] == 'e')) {
				i++
			}
			out = append(out, tok{tNum, string(rs[start:i]), line})
		case r == '(':
			out = append(out, tok{tLParen, "(", line})
			i++
		case r == ')':
			out = append(out, tok{tRParen, ")", line})
			i++
		case r == ',':
			out = append(out, tok{tComma, ",", line})
			i++
		case r == ';':
			out = append(out, tok{tSemi, ";", line})
			i++
		case r == '<':
			out = append(out, tok{tLess, "<", line})
			i++
		default:
			return nil, fmt.Errorf("afl: line %d: unexpected character %q", line, r)
		}
	}
	out = append(out, tok{tEOF, "", line})
	return out, nil
}

// --- parser --------------------------------------------------------------

// Parse parses a semicolon-separated sequence of AFL expressions.
func Parse(src string) ([]Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Expr
	for p.peek().kind != tEOF {
		e, err := p.cmp()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		switch p.peek().kind {
		case tSemi:
			p.next()
		case tEOF:
		default:
			return nil, p.errf(p.peek(), "expected ';' between statements, found %q", p.peek().text)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("afl: empty program")
	}
	return out, nil
}

type parser struct {
	toks []tok
	pos  int
}

func (p *parser) peek() tok { return p.toks[p.pos] }

func (p *parser) next() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t tok, format string, args ...any) error {
	return fmt.Errorf("afl: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

// cmp := primary ('<' primary)?
func (p *parser) cmp() (Expr, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tLess {
		p.next()
		right, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &Cmp{Left: left, Right: right}, nil
	}
	return left, nil
}

// primary := call | ident | number
func (p *parser) primary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tIdent:
		if p.peek().kind != tLParen {
			return &Ident{Line: t.line, Name: t.text}, nil
		}
		p.next() // (
		call := &Call{Line: t.line, Fn: strings.ToLower(t.text)}
		if p.peek().kind == tRParen {
			p.next()
			return call, nil
		}
		for {
			a, err := p.cmp()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			switch p.peek().kind {
			case tComma:
				p.next()
				continue
			case tRParen:
				p.next()
				return call, nil
			default:
				return nil, p.errf(p.peek(), "expected ',' or ')', found %q", p.peek().text)
			}
		}
	case tNum:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		return &Num{Line: t.line, V: v}, nil
	}
	return nil, p.errf(t, "expected expression, found %q", t.text)
}

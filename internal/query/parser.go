package query

import (
	"fmt"
	"strconv"
	"strings"

	"colock/internal/store"
)

// Parse parses a query string into its AST.
//
// Grammar:
//
//	query   := SELECT path FROM binding (',' binding)*
//	           [WHERE pred (AND pred)*] [FOR (READ|UPDATE)] [NOFOLLOW]
//	binding := ident IN path
//	pred    := path op literal
//	path    := ident ('.' ident)*
//	op      := '=' | '<>' | '<' | '>' | '<=' | '>='
//	literal := 'string' | number | TRUE | FALSE
func Parse(input string) (*Query, error) {
	var p parser
	if err := p.init(input); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.validateVars(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
	// segs backs every path the parser returns: each path segment is an
	// identifier token, so one array sized by their count holds them all.
	segs []string
	// bindings and preds bound a statement's FROM bindings (one IN each)
	// and WHERE predicates (one more than its ANDs), to size those slices
	// once.
	bindings, preds int
}

// init lexes input and sizes the parser's per-statement arrays from the
// token stream.
func (p *parser) init(input string) error {
	toks, err := lex(input)
	if err != nil {
		return err
	}
	idents, ins, ands := 0, 0, 0
	for _, t := range toks {
		switch {
		case t.kind == tokIdent:
			idents++
		case t.kind == tokKeyword && t.text == "IN":
			ins++
		case t.kind == tokKeyword && t.text == "AND":
			ands++
		}
	}
	*p = parser{toks: toks, input: input, segs: make([]string, 0, idents), bindings: ins, preds: ands + 1}
	return nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("query: %s at offset %d (near %q)", fmt.Sprintf(format, args...), t.pos, t.text)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s", kw)
	}
	p.pos++
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	q := &Query{Select: sel[0], SelectAttrs: sel[1:], From: make([]Binding, 0, p.bindings)}
	for {
		b, err := p.parseBinding()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, b)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.pos++
		q.Where = make([]Predicate, 0, p.preds)
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if p.cur().kind == tokKeyword && p.cur().text == "AND" {
				p.pos++
				continue
			}
			break
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "FOR" {
		p.pos++
		t := p.next()
		switch {
		case t.kind == tokKeyword && t.text == "READ":
			q.Update = false
		case t.kind == tokKeyword && t.text == "UPDATE":
			q.Update = true
		default:
			p.pos--
			return nil, p.errf("expected READ or UPDATE after FOR")
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "NOFOLLOW" {
		p.pos++
		q.NoFollow = true
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	return q, nil
}

func (p *parser) parseBinding() (Binding, error) {
	v, err := p.expectIdent()
	if err != nil {
		return Binding{}, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return Binding{}, err
	}
	src, err := p.parsePath()
	if err != nil {
		return Binding{}, err
	}
	return Binding{Var: v, Source: src}, nil
}

// parsePath returns a slice of p.segs capped at its length, so appending to
// one path never overwrites the next.
func (p *parser) parsePath() ([]string, error) {
	start := len(p.segs)
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.segs = append(p.segs, first)
	for p.cur().kind == tokSymbol && p.cur().text == "." {
		p.pos++
		seg, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.segs = append(p.segs, seg)
	}
	return p.segs[start:len(p.segs):len(p.segs)], nil
}

var validOps = map[string]bool{"=": true, "<>": true, "<": true, ">": true, "<=": true, ">=": true}

func (p *parser) parsePredicate() (Predicate, error) {
	path, err := p.parsePath()
	if err != nil {
		return Predicate{}, err
	}
	if len(path) < 2 {
		return Predicate{}, p.errf("predicate path %q must be var.attr", strings.Join(path, "."))
	}
	op := p.cur()
	if op.kind != tokSymbol || !validOps[op.text] {
		return Predicate{}, p.errf("expected comparison operator")
	}
	p.pos++
	lit, err := p.parseLiteral()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Path: path, Op: op.text, Lit: lit}, nil
}

func (p *parser) parseLiteral() (store.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokString:
		p.pos++
		return store.Str(t.text), nil
	case t.kind == tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return store.Real(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return store.Int(n), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.pos++
		return store.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.pos++
		return store.Bool(false), nil
	}
	return nil, p.errf("expected literal")
}

package query

import (
	"fmt"

	"colock/internal/store"
)

// DML statements. Besides the paper's SELECT … FOR READ/UPDATE queries
// (Figure 3), the language supports the modifying statements that the
// paper's discussion needs — in particular §4.5's "deletion of a robot by a
// transaction which doesn't have the right to delete effectors":
//
//	UPDATE r SET trajectory = 'tr9' FROM c IN cells, r IN c.robots
//	WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'
//
//	DELETE r FROM c IN cells, r IN c.robots
//	WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' NOFOLLOW
//
//	INSERT INTO effectors VALUE {eff_id: 'e9', tool: 't9'}
//
// Value literals cover the full extended-NF² model:
//
//	{attr: value, ...}              tuple
//	SET(id: value, ...)             set with element IDs
//	LIST(id: value, ...)            list in element order
//	REF(relation, 'key')            reference to common data
//	'str' | 42 | 2.5 | TRUE|FALSE   atomics

// StmtKind discriminates statements.
type StmtKind uint8

const (
	// StmtSelect is a SELECT query.
	StmtSelect StmtKind = iota
	// StmtUpdate is an UPDATE … SET statement.
	StmtUpdate
	// StmtDelete is a DELETE statement.
	StmtDelete
	// StmtInsert is an INSERT INTO … VALUE statement.
	StmtInsert
)

// String names the statement kind.
func (k StmtKind) String() string {
	switch k {
	case StmtSelect:
		return "SELECT"
	case StmtUpdate:
		return "UPDATE"
	case StmtDelete:
		return "DELETE"
	case StmtInsert:
		return "INSERT"
	}
	return fmt.Sprintf("StmtKind(%d)", uint8(k))
}

// SetClause is one attr = literal assignment of an UPDATE.
type SetClause struct {
	// Attrs is the attribute chain below the updated variable's instance.
	Attrs []string
	// Value is the new atomic value.
	Value store.Value
}

// Statement is a parsed statement of any kind.
type Statement struct {
	Kind StmtKind
	// Query carries target/bindings/predicates for SELECT, UPDATE and
	// DELETE (for UPDATE and DELETE, Query.Select names the affected
	// variable and Query.Update is forced true).
	Query *Query
	// Sets are the UPDATE assignments.
	Sets []SetClause
	// InsertRelation / InsertKey / InsertValue describe an INSERT.
	InsertRelation string
	InsertValue    *store.Tuple
}

// ParseStatement parses a statement of any kind.
func ParseStatement(input string) (*Statement, error) {
	var p parser
	if err := p.init(input); err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errf("expected SELECT, UPDATE, DELETE or INSERT")
	}
	switch t.text {
	case "SELECT":
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := q.validateVars(); err != nil {
			return nil, err
		}
		return &Statement{Kind: StmtSelect, Query: q}, nil
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "INSERT":
		return p.parseInsert()
	}
	return nil, p.errf("expected SELECT, UPDATE, DELETE or INSERT")
}

// parseUpdate := UPDATE ident SET ident('.'ident)* '=' literal
// (',' ...)* FROM bindings [WHERE ...] [NOFOLLOW]
func (p *parser) parseUpdate() (*Statement, error) {
	p.pos++ // UPDATE
	target, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtUpdate}
	for {
		attrs, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokSymbol || p.cur().text != "=" {
			return nil, p.errf("expected '=' in SET clause")
		}
		p.pos++
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Attrs: attrs, Value: lit})
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	q, err := p.parseTail(target)
	if err != nil {
		return nil, err
	}
	st.Query = q
	return st, nil
}

// parseDelete := DELETE ident FROM bindings [WHERE ...] [NOFOLLOW]
func (p *parser) parseDelete() (*Statement, error) {
	p.pos++ // DELETE
	target, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q, err := p.parseTail(target)
	if err != nil {
		return nil, err
	}
	return &Statement{Kind: StmtDelete, Query: q}, nil
}

// parseTail parses FROM/WHERE/NOFOLLOW shared by UPDATE and DELETE and
// builds the underlying FOR UPDATE query for the target variable.
func (p *parser) parseTail(target string) (*Query, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	q := &Query{Select: target, Update: true, From: make([]Binding, 0, p.bindings)}
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
	if p.cur().kind == tokKeyword && p.cur().text == "NOFOLLOW" {
		p.pos++
		q.NoFollow = true
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	if err := q.validateVars(); err != nil {
		return nil, err
	}
	return q, nil
}

// parseInsert := INSERT INTO ident VALUE tupleLiteral
func (p *parser) parseInsert() (*Statement, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUE"); err != nil {
		return nil, err
	}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	tp, ok := v.(*store.Tuple)
	if !ok {
		return nil, fmt.Errorf("query: INSERT VALUE must be a tuple literal {…}")
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	return &Statement{Kind: StmtInsert, InsertRelation: rel, InsertValue: tp}, nil
}

// parseValue parses a value literal of the extended NF² model.
func (p *parser) parseValue() (store.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokSymbol && t.text == "{":
		p.pos++
		tp := store.NewTuple()
		if p.cur().kind == tokSymbol && p.cur().text == "}" {
			p.pos++
			return tp, nil
		}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.cur().kind != tokSymbol || p.cur().text != ":" {
				return nil, p.errf("expected ':' after tuple field %q", name)
			}
			p.pos++
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			tp.Set(name, v)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.pos++
				continue
			}
			break
		}
		if p.cur().kind != tokSymbol || p.cur().text != "}" {
			return nil, p.errf("expected '}'")
		}
		p.pos++
		return tp, nil
	case t.kind == tokKeyword && t.text == "SET":
		p.pos++
		elems, err := p.parseElems()
		if err != nil {
			return nil, err
		}
		set := store.NewSet()
		for _, e := range elems {
			set.Add(e.id, e.v)
		}
		return set, nil
	case t.kind == tokKeyword && t.text == "LIST":
		p.pos++
		elems, err := p.parseElems()
		if err != nil {
			return nil, err
		}
		list := store.NewList()
		for _, e := range elems {
			list.Append(e.id, e.v)
		}
		return list, nil
	case t.kind == tokKeyword && t.text == "REF":
		p.pos++
		if p.cur().kind != tokSymbol || p.cur().text != "(" {
			return nil, p.errf("expected '(' after REF")
		}
		p.pos++
		rel, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokSymbol || p.cur().text != "," {
			return nil, p.errf("expected ',' in REF")
		}
		p.pos++
		key := p.cur()
		if key.kind != tokString && key.kind != tokNumber {
			return nil, p.errf("expected key literal in REF")
		}
		p.pos++
		if p.cur().kind != tokSymbol || p.cur().text != ")" {
			return nil, p.errf("expected ')' after REF")
		}
		p.pos++
		return store.Ref{Relation: rel, Key: key.text}, nil
	default:
		return p.parseLiteral()
	}
}

type elemLit struct {
	id string
	v  store.Value
}

// parseElems parses '(' [id ':' value (',' id ':' value)*] ')' where id is
// an identifier, string or number.
func (p *parser) parseElems() ([]elemLit, error) {
	if p.cur().kind != tokSymbol || p.cur().text != "(" {
		return nil, p.errf("expected '(' after collection keyword")
	}
	p.pos++
	var out []elemLit
	if p.cur().kind == tokSymbol && p.cur().text == ")" {
		p.pos++
		return out, nil
	}
	for {
		idTok := p.cur()
		if idTok.kind != tokIdent && idTok.kind != tokString && idTok.kind != tokNumber {
			return nil, p.errf("expected element id")
		}
		p.pos++
		if p.cur().kind != tokSymbol || p.cur().text != ":" {
			return nil, p.errf("expected ':' after element id %q", idTok.text)
		}
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		out = append(out, elemLit{id: idTok.text, v: v})
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	if p.cur().kind != tokSymbol || p.cur().text != ")" {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return out, nil
}

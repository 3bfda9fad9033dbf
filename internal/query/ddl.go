package query

import (
	"fmt"

	"colock/internal/schema"
)

// DDL: CREATE RELATION statements let applications (and the shell) define
// extended-NF² schemas in the same language that queries them:
//
//	CREATE RELATION effectors IN SEGMENT seg2 KEY eff_id
//	  {eff_id: str, tool: str}
//
//	CREATE RELATION cells IN SEGMENT seg1 KEY cell_id {
//	  cell_id: str,
//	  c_objects: SET({obj_id: int, obj_name: str}),
//	  robots: LIST({robot_id: str, trajectory: str, effectors: SET(REF(effectors))})
//	}
//
// Type grammar:
//
//	type := str | int | real | bool
//	      | SET(type) | LIST(type)
//	      | {name: type, ...}        (tuple)
//	      | REF(relation)
//
// The statement registers the relation in the catalog and re-validates it;
// on a validation failure the relation is not added.

// CreateStatement is a parsed CREATE RELATION.
type CreateStatement struct {
	Relation *schema.Relation
}

// ParseCreate parses a CREATE RELATION statement.
func ParseCreate(input string) (*CreateStatement, error) {
	var p parser
	if err := p.init(input); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("RELATION"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SEGMENT"); err != nil {
		return nil, err
	}
	seg, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("KEY"); err != nil {
		return nil, err
	}
	key, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	if t.Kind != schema.KindTuple {
		return nil, fmt.Errorf("query: CREATE RELATION %s: type must be a tuple {…}", name)
	}
	return &CreateStatement{Relation: &schema.Relation{
		Name: name, Segment: seg, Key: key, Type: t,
	}}, nil
}

// parseType parses the DDL type grammar.
func (p *parser) parseType() (*schema.Type, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent:
		p.pos++
		switch t.text {
		case "str":
			return schema.Str(), nil
		case "int":
			return schema.Int(), nil
		case "real":
			return schema.Real(), nil
		case "bool":
			return schema.Bool(), nil
		}
		return nil, p.errf("unknown atomic type %q", t.text)
	case t.kind == tokKeyword && (t.text == "SET" || t.text == "LIST"):
		p.pos++
		if p.cur().kind != tokSymbol || p.cur().text != "(" {
			return nil, p.errf("expected '(' after %s", t.text)
		}
		p.pos++
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokSymbol || p.cur().text != ")" {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		if t.text == "SET" {
			return schema.Set(elem), nil
		}
		return schema.List(elem), nil
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
		if p.cur().kind != tokSymbol || p.cur().text != ")" {
			return nil, p.errf("expected ')' after REF")
		}
		p.pos++
		return schema.Ref(rel), nil
	case t.kind == tokSymbol && t.text == "{":
		p.pos++
		var fields []schema.Field
		if p.cur().kind == tokSymbol && p.cur().text == "}" {
			return nil, p.errf("tuple type needs at least one field")
		}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.cur().kind != tokSymbol || p.cur().text != ":" {
				return nil, p.errf("expected ':' after field %q", name)
			}
			p.pos++
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, schema.F(name, ft))
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
		return schema.Tuple(fields...), nil
	}
	return nil, p.errf("expected a type")
}

// Apply registers the relation in the catalog, validating the result. The
// catalog is left unchanged on error... relations cannot be unregistered, so
// validation happens against a trial catalog first.
func (c *CreateStatement) Apply(cat *schema.Catalog) error {
	// Trial: replay the existing relations plus the new one into a scratch
	// catalog and validate there.
	trial := schema.NewCatalog(cat.Database)
	trial.SetRecursive(cat.Recursive())
	for _, r := range cat.Relations() {
		if err := trial.AddRelation(r); err != nil {
			return err
		}
	}
	if err := trial.AddRelation(c.Relation); err != nil {
		return err
	}
	if err := trial.Validate(); err != nil {
		return err
	}
	return cat.AddRelation(c.Relation)
}

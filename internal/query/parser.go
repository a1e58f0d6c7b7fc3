package query

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/dataset"
)

// Parse parses a query in the VisDB dialect:
//
//	SELECT Temperature, Solar_Radiation, Humidity, Ozone
//	FROM Weather, Air-Pollution
//	WHERE (Temperature > 15.0 OR Solar_Radiation > 600 OR Humidity < 60)
//	  AND CONNECT with-time-diff(120)
//
// Conditions accept `WEIGHT n` suffixes (the paper's weighting factors),
// `USING fn` distance-function selectors, BETWEEN, IN (value list or
// subquery), EXISTS (subquery) and CONNECT for named approximate joins.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		t := p.peek()
		return nil, fmt.Errorf("query: trailing input %q at offset %d", t.text, t.pos)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token matches kind (and text, when
// non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.peek()
	return token{}, fmt.Errorf("query: expected %q, found %q at offset %d", text, t.text, t.pos)
}

func (p *parser) parseQuery() (*Query, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("query: expected table name, found %q at offset %d", t.text, t.pos)
		}
		q.From = append(q.From, p.next().text)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokSymbol && t.text == "*" {
		p.next()
		return SelectItem{Attr: "*"}, nil
	}
	if t.kind == tokKeyword {
		var agg Agg
		switch t.text {
		case "AVG":
			agg = AggAvg
		case "SUM":
			agg = AggSum
		case "MAX":
			agg = AggMax
		case "MIN":
			agg = AggMin
		case "COUNT":
			agg = AggCount
		default:
			return SelectItem{}, fmt.Errorf("query: unexpected keyword %q in result list at offset %d", t.text, t.pos)
		}
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return SelectItem{}, err
		}
		var attr string
		if p.accept(tokSymbol, "*") {
			attr = "*"
		} else {
			a, err := p.parseAttr()
			if err != nil {
				return SelectItem{}, err
			}
			attr = a
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Agg: agg, Attr: attr}, nil
	}
	attr, err := p.parseAttr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Attr: attr}, nil
}

// parseAttr parses `ident` or `ident.ident`.
func (p *parser) parseAttr() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("query: expected attribute, found %q at offset %d", t.text, t.pos)
	}
	name := p.next().text
	if p.accept(tokSymbol, ".") {
		t2 := p.peek()
		if t2.kind != tokIdent {
			return "", fmt.Errorf("query: expected attribute after '.', found %q at offset %d", t2.text, t2.pos)
		}
		name += "." + p.next().text
	}
	return name, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.at(tokKeyword, "OR") {
		return left, nil
	}
	node := &BoolExpr{Op: Or, Children: []Expr{left}}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, right)
	}
	return node, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if !p.at(tokKeyword, "AND") {
		return left, nil
	}
	node := &BoolExpr{Op: And, Children: []Expr{left}}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, right)
	}
	return node, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		// NOT EXISTS / NOT IN fold into subquery modes during primary
		// parsing, so only general negation lands here.
		if p.at(tokKeyword, "EXISTS") {
			sub, err := p.parseExists()
			if err != nil {
				return nil, err
			}
			sub.Mode = NotExists
			return p.withWeight(sub)
		}
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.withWeight(&Not{Child: child})
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return p.withWeight(e)
	case t.kind == tokKeyword && t.text == "EXISTS":
		sub, err := p.parseExists()
		if err != nil {
			return nil, err
		}
		return p.withWeight(sub)
	case t.kind == tokKeyword && t.text == "CONNECT":
		p.next()
		nt := p.peek()
		if nt.kind != tokIdent {
			return nil, fmt.Errorf("query: expected connection name after CONNECT at offset %d", nt.pos)
		}
		j := &JoinExpr{Connection: p.next().text}
		if p.accept(tokSymbol, "(") {
			num, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			j.Param = num
			j.HasParam = true
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		return p.withWeight(j)
	case t.kind == tokIdent:
		return p.parseCondition()
	default:
		return nil, fmt.Errorf("query: unexpected %q at offset %d", t.text, t.pos)
	}
}

func (p *parser) parseExists() (*SubqueryExpr, error) {
	if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	sub, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &SubqueryExpr{Mode: Exists, Sub: sub}, nil
}

func (p *parser) parseCondition() (Expr, error) {
	attr, err := p.parseAttr()
	if err != nil {
		return nil, err
	}
	// attr NOT IN (...)
	if p.accept(tokKeyword, "NOT") {
		if _, err := p.expect(tokKeyword, "IN"); err != nil {
			return nil, err
		}
		return p.parseInTail(attr, true)
	}
	if p.accept(tokKeyword, "IN") {
		return p.parseInTail(attr, false)
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		c := &Cond{Attr: attr, Op: OpBetween, Lo: lo, Hi: hi}
		return p.withSuffixes(c)
	}
	t := p.peek()
	if t.kind != tokSymbol {
		return nil, fmt.Errorf("query: expected comparison operator after %q at offset %d", attr, t.pos)
	}
	var op Op
	switch t.text {
	case "=":
		op = OpEq
	case "<>", "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, fmt.Errorf("query: unexpected operator %q at offset %d", t.text, t.pos)
	}
	p.next()
	v, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	c := &Cond{Attr: attr, Op: op, Value: v}
	return p.withSuffixes(c)
}

// parseInTail parses the remainder of `attr [NOT] IN (` — either a value
// list or a subquery.
func (p *parser) parseInTail(attr string, negated bool) (Expr, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	if p.at(tokKeyword, "SELECT") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		mode := InQuery
		if negated {
			mode = NotInQuery
		}
		return p.withWeight(&SubqueryExpr{Mode: mode, Attr: attr, Sub: sub})
	}
	var list []dataset.Value
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		list = append(list, v)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	var e Expr = &Cond{Attr: attr, Op: OpIn, List: list}
	e, err := p.withSuffixes(e.(*Cond))
	if err != nil {
		return nil, err
	}
	if negated {
		return &Not{Child: e}, nil
	}
	return e, nil
}

// withSuffixes consumes optional `USING fn` and `WEIGHT n` after a
// simple condition.
func (p *parser) withSuffixes(c *Cond) (Expr, error) {
	if p.accept(tokKeyword, "USING") {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("query: expected distance function after USING at offset %d", t.pos)
		}
		c.DistFunc = p.next().text
	}
	return p.withWeight(c)
}

// withWeight consumes an optional `WEIGHT n` suffix for any expression.
func (p *parser) withWeight(e Expr) (Expr, error) {
	if p.accept(tokKeyword, "WEIGHT") {
		w, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if w < 0 {
			return nil, fmt.Errorf("query: negative weight %g", w)
		}
		e.SetWeight(w)
	}
	return e, nil
}

func (p *parser) parseNumber() (float64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("query: expected number, found %q at offset %d", t.text, t.pos)
	}
	p.next()
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad number %q at offset %d: %w", t.text, t.pos, err)
	}
	return f, nil
}

// parseLiteral parses a number, quoted string (which may later bind as a
// time), TRUE/FALSE or NULL.
func (p *parser) parseLiteral() (dataset.Value, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return dataset.Value{}, fmt.Errorf("query: bad number %q: %w", t.text, err)
		}
		return dataset.Float(f), nil
	case t.kind == tokString:
		p.next()
		// Strings that look like RFC 3339 instants become time values so
		// time predicates read naturally.
		if ts, err := time.Parse(time.RFC3339, t.text); err == nil {
			return dataset.Time(ts), nil
		}
		return dataset.Str(t.text), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return dataset.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return dataset.Bool(false), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return dataset.Null(dataset.KindFloat), nil
	default:
		return dataset.Value{}, fmt.Errorf("query: expected literal, found %q at offset %d", t.text, t.pos)
	}
}

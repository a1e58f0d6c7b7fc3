package query

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
)

// BoundAttr is an attribute reference resolved to a table and kind.
type BoundAttr struct {
	Table string
	Attr  string
	Kind  dataset.Kind
}

// Qualified returns "Table.Attr".
func (b BoundAttr) Qualified() string { return b.Table + "." + b.Attr }

// Binding is the result of resolving a query against a catalog: every
// condition attribute mapped to its table/kind, every CONNECT mapped to
// its catalog connection, and every subquery bound recursively.
type Binding struct {
	Query   *Query
	Catalog *dataset.Catalog
	Attrs   map[*Cond]BoundAttr
	Joins   map[*JoinExpr]dataset.Connection
	Subs    map[*SubqueryExpr]*Binding
	InAttrs map[*SubqueryExpr]BoundAttr
	Selects []BoundAttr // resolved non-star, non-aggregate select items
}

// Bind resolves q against cat, checking that tables, attributes and
// connections exist, that operators fit the attribute kinds, and that
// literals coerce to the attribute kinds. It corresponds to the checks
// the GRADI interface performs during interactive query construction.
func Bind(q *Query, cat *dataset.Catalog) (*Binding, error) {
	b := &Binding{
		Query:   q,
		Catalog: cat,
		Attrs:   make(map[*Cond]BoundAttr),
		Joins:   make(map[*JoinExpr]dataset.Connection),
		Subs:    make(map[*SubqueryExpr]*Binding),
		InAttrs: make(map[*SubqueryExpr]BoundAttr),
	}
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: no tables in FROM")
	}
	seen := map[string]bool{}
	for _, name := range q.From {
		if seen[name] {
			return nil, fmt.Errorf("query: table %q listed twice in FROM", name)
		}
		seen[name] = true
		if _, err := cat.Table(name); err != nil {
			return nil, err
		}
	}
	for _, item := range q.Select {
		if item.Attr == "*" {
			continue
		}
		attr, err := b.resolveAttr(item.Attr)
		if err != nil {
			return nil, err
		}
		if item.Agg == AggNone {
			b.Selects = append(b.Selects, attr)
		}
	}
	if q.Where != nil {
		if err := b.bindExpr(q.Where); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *Binding) bindExpr(e Expr) error {
	if e.Weight() < 0 {
		return fmt.Errorf("query: negative weight on %s", e.Label())
	}
	switch n := e.(type) {
	case *Cond:
		return b.bindCond(n)
	case *BoolExpr:
		if len(n.Children) == 0 {
			return fmt.Errorf("query: empty %s expression", n.Op)
		}
		for _, c := range n.Children {
			if err := b.bindExpr(c); err != nil {
				return err
			}
		}
		return nil
	case *Not:
		return b.bindExpr(n.Child)
	case *JoinExpr:
		conn, err := b.Catalog.Connection(n.Connection)
		if err != nil {
			return err
		}
		// Two-table queries need both sides in FROM (the approximate
		// join over the cross product). A single-table query may also
		// reference a connection touching that table: it then scores
		// each row by its inverse join-partner count (section 4.4).
		if len(b.Query.From) == 1 {
			if t := b.Query.From[0]; t != conn.Left && t != conn.Right {
				return fmt.Errorf("query: connection %q joins %s and %s, neither of which is FROM table %s",
					n.Connection, conn.Left, conn.Right, t)
			}
		} else if !b.hasFrom(conn.Left) || !b.hasFrom(conn.Right) {
			return fmt.Errorf("query: connection %q joins %s and %s, which must both appear in FROM %v",
				n.Connection, conn.Left, conn.Right, b.Query.From)
		}
		if n.HasParam {
			if n.Param < 0 {
				return fmt.Errorf("query: connection %q parameter must be non-negative", n.Connection)
			}
			conn.Param = n.Param
		}
		b.Joins[n] = conn
		return nil
	case *SubqueryExpr:
		sub, err := Bind(n.Sub, b.Catalog)
		if err != nil {
			return fmt.Errorf("query: in subquery: %w", err)
		}
		b.Subs[n] = sub
		if n.Mode == InQuery || n.Mode == NotInQuery {
			attr, err := b.resolveAttr(n.Attr)
			if err != nil {
				return err
			}
			b.InAttrs[n] = attr
			if len(sub.Selects) != 1 {
				return fmt.Errorf("query: IN subquery must select exactly one plain attribute, got %d", len(sub.Selects))
			}
		}
		return nil
	default:
		return fmt.Errorf("query: unknown expression type %T", e)
	}
}

// CondOn returns the first condition in query order (Walk's) on the
// attribute attr that usable accepts (every one when usable is nil): as
// written ("x" or "T.x"), after the written table qualifier, or as bound
// ("x" or "T.x"); nil if there is none. It is the one rule by which a
// slider addresses a condition by name — a range op over the wire and a
// 2D arrangement's axis alike.
func (b *Binding) CondOn(attr string, usable func(*Cond) bool) *Cond {
	var found *Cond
	Walk(b.Query.Where, func(e Expr) {
		c, ok := e.(*Cond)
		if !ok || found != nil || usable != nil && !usable(c) {
			return
		}
		a, bound := b.Attrs[c]
		if c.Attr == attr || strings.HasSuffix(c.Attr, "."+attr) || bound && (a.Attr == attr || a.Qualified() == attr) {
			found = c
		}
	})
	return found
}

func (b *Binding) hasFrom(table string) bool {
	for _, t := range b.Query.From {
		if t == table {
			return true
		}
	}
	return false
}

// resolveAttr resolves "Attr" or "Table.Attr" against the FROM tables.
// Unqualified names must be unambiguous.
func (b *Binding) resolveAttr(name string) (BoundAttr, error) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		tbl, attr := name[:i], name[i+1:]
		if !b.hasFrom(tbl) {
			return BoundAttr{}, fmt.Errorf("query: table %q of %q not in FROM %v", tbl, name, b.Query.From)
		}
		t, err := b.Catalog.Table(tbl)
		if err != nil {
			return BoundAttr{}, err
		}
		idx := t.Schema().Index(attr)
		if idx < 0 {
			return BoundAttr{}, fmt.Errorf("query: table %s has no attribute %q", tbl, attr)
		}
		return BoundAttr{Table: tbl, Attr: attr, Kind: t.Schema()[idx].Kind}, nil
	}
	var found []BoundAttr
	for _, tbl := range b.Query.From {
		t, err := b.Catalog.Table(tbl)
		if err != nil {
			return BoundAttr{}, err
		}
		if idx := t.Schema().Index(name); idx >= 0 {
			found = append(found, BoundAttr{Table: tbl, Attr: name, Kind: t.Schema()[idx].Kind})
		}
	}
	switch len(found) {
	case 0:
		return BoundAttr{}, fmt.Errorf("query: no table in FROM %v has attribute %q", b.Query.From, name)
	case 1:
		return found[0], nil
	default:
		var opts []string
		for _, f := range found {
			opts = append(opts, f.Qualified())
		}
		return BoundAttr{}, fmt.Errorf("query: attribute %q is ambiguous (%s)", name, strings.Join(opts, ", "))
	}
}

func (b *Binding) bindCond(c *Cond) error {
	attr, err := b.resolveAttr(c.Attr)
	if err != nil {
		return err
	}
	b.Attrs[c] = attr
	// Operator admissibility per kind: ordered comparisons need an
	// ordered kind; nominal attributes only support =, <>, IN.
	ordered := attr.Kind.IsNumeric() || attr.Kind == dataset.KindOrdinal || attr.Kind == dataset.KindString
	switch c.Op {
	case OpLt, OpLe, OpGt, OpGe, OpBetween:
		if !ordered || attr.Kind == dataset.KindBool {
			return fmt.Errorf("query: operator %s needs an ordered attribute, %s is %v", c.Op, attr.Qualified(), attr.Kind)
		}
	}
	check := func(v dataset.Value, what string) error {
		if v.Null {
			return fmt.Errorf("query: NULL literal not allowed in %s of %s (use IS NULL semantics via baseline)", what, attr.Qualified())
		}
		return coercible(attr.Kind, v, attr.Qualified())
	}
	switch c.Op {
	case OpBetween:
		if err := check(c.Lo, "BETWEEN lower bound"); err != nil {
			return err
		}
		if err := check(c.Hi, "BETWEEN upper bound"); err != nil {
			return err
		}
		lo, lok := c.Lo.AsFloat()
		hi, hok := c.Hi.AsFloat()
		if lok && hok && lo > hi {
			return fmt.Errorf("query: BETWEEN bounds reversed on %s (%g > %g)", attr.Qualified(), lo, hi)
		}
	case OpIn:
		if len(c.List) == 0 {
			return fmt.Errorf("query: empty IN list on %s", attr.Qualified())
		}
		for _, v := range c.List {
			if err := check(v, "IN list"); err != nil {
				return err
			}
		}
	default:
		if err := check(c.Value, "comparison"); err != nil {
			return err
		}
	}
	return nil
}

// coercible checks that literal v can serve as a comparison operand for
// a column of kind k.
func coercible(k dataset.Kind, v dataset.Value, attr string) error {
	switch {
	case k == dataset.KindTime:
		if v.Kind != dataset.KindTime {
			return fmt.Errorf("query: %s is a time attribute; literal %s is not a time", attr, v)
		}
	case k.IsNumeric():
		if _, ok := v.AsFloat(); !ok {
			return fmt.Errorf("query: %s is numeric; literal %q is not", attr, v.String())
		}
	case k.IsStringy():
		if !v.Kind.IsStringy() {
			return fmt.Errorf("query: %s is %v; literal %s is not a string", attr, k, v)
		}
	}
	return nil
}

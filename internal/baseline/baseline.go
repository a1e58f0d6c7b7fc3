// Package baseline implements the comparison system of the experiments:
// a traditional boolean query evaluator with exact SQL semantics. The
// paper's motivation (section 1) is that with such interfaces "the
// result for most queries will contain either less data than expected,
// sometimes even no answers, so-called 'NULL' results, or more data
// than expected"; the experiment harness quantifies that against the
// VisDB engine's relevance ranking.
package baseline

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/query"
)

// Matches evaluates q exactly over its single FROM table and returns
// the indices of rows satisfying the condition. Multi-table queries are
// out of scope for the baseline (the experiments compare equi-joins via
// the join package instead).
func Matches(cat *dataset.Catalog, q *query.Query) ([]int, error) {
	b, err := query.Bind(q, cat)
	if err != nil {
		return nil, err
	}
	if len(q.From) != 1 {
		return nil, fmt.Errorf("baseline: only single-table queries supported, got %d tables", len(q.From))
	}
	t, err := cat.Table(q.From[0])
	if err != nil {
		return nil, err
	}
	var out []int
	for row := 0; row < t.NumRows(); row++ {
		ok, err := evalExpr(q.Where, b, cat, t, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// MatchesSQL is Matches over a dialect string.
func MatchesSQL(cat *dataset.Catalog, src string) ([]int, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return Matches(cat, q)
}

func evalExpr(e query.Expr, b *query.Binding, cat *dataset.Catalog, t *dataset.Table, row int) (bool, error) {
	if e == nil {
		return true, nil
	}
	switch n := e.(type) {
	case *query.Cond:
		attr, ok := b.Attrs[n]
		if !ok {
			return false, fmt.Errorf("baseline: condition %q not bound", n.Label())
		}
		v, err := t.Value(row, attr.Attr)
		if err != nil {
			return false, err
		}
		return n.Holds(attr.Kind, v) // false on NULL: three-valued logic collapsed
	case *query.BoolExpr:
		if n.Op == query.And {
			for _, c := range n.Children {
				ok, err := evalExpr(c, b, cat, t, row)
				if err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}
		for _, c := range n.Children {
			ok, err := evalExpr(c, b, cat, t, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *query.Not:
		ok, err := evalExpr(n.Child, b, cat, t, row)
		return !ok, err
	case *query.SubqueryExpr:
		return evalSubquery(n, b, cat, t, row)
	case *query.JoinExpr:
		return false, fmt.Errorf("baseline: connections unsupported in single-table evaluation")
	default:
		return false, fmt.Errorf("baseline: unsupported expression %T", e)
	}
}

func evalSubquery(sq *query.SubqueryExpr, b *query.Binding, cat *dataset.Catalog, t *dataset.Table, row int) (bool, error) {
	subB, ok := b.Subs[sq]
	if !ok {
		return false, fmt.Errorf("baseline: subquery not bound")
	}
	inner, err := cat.Table(sq.Sub.From[0])
	if err != nil {
		return false, err
	}
	switch sq.Mode {
	case query.Exists, query.NotExists:
		any := false
		for r := 0; r < inner.NumRows(); r++ {
			ok, err := evalExpr(sq.Sub.Where, subB, cat, inner, r)
			if err != nil {
				return false, err
			}
			if ok {
				any = true
				break
			}
		}
		if sq.Mode == query.Exists {
			return any, nil
		}
		return !any, nil
	case query.InQuery, query.NotInQuery:
		attr := b.InAttrs[sq]
		v, err := t.Value(row, attr.Attr)
		if err != nil {
			return false, err
		}
		if v.Null {
			return false, nil
		}
		innerAttr := subB.Selects[0]
		member := false
		for r := 0; r < inner.NumRows(); r++ {
			ok, err := evalExpr(sq.Sub.Where, subB, cat, inner, r)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			iv, err := inner.Value(r, innerAttr.Attr)
			if err != nil {
				return false, err
			}
			if !iv.Null && iv.String() == v.String() {
				member = true
				break
			}
		}
		if sq.Mode == query.InQuery {
			return member, nil
		}
		return !member, nil
	}
	return false, fmt.Errorf("baseline: unknown subquery mode")
}

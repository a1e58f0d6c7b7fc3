// Package query implements the query substrate of the VisDB
// reproduction: an AST for SQL-like queries with per-predicate weighting
// factors, a text parser for them, a binder that resolves names and
// types against a dataset catalog, and an ASCII renderer of the GRADI
// query-representation window (figure 3 of the paper), where "each part
// of the query is represented by a small box, simple conditions by a
// single, subqueries by a double box".
package query

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
)

// Op is a comparison operator of a simple condition.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpIn // value list; subquery IN is SubqueryExpr
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Invert returns the negation-inverted operator per section 4.4 of the
// paper: only {<, <=, >, >=} are invertible; ok is false otherwise
// ("in most cases where negations are used ... no distance values may be
// obtained").
func (o Op) Invert() (Op, bool) {
	switch o {
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	default:
		return o, false
	}
}

// Expr is a node of the query condition tree. The concrete types are
// *Cond, *BoolExpr, *Not, *JoinExpr and *SubqueryExpr.
type Expr interface {
	// Weight returns the node's weighting factor (section 5.2).
	Weight() float64
	// SetWeight updates the weighting factor (interactive modification).
	SetWeight(w float64)
	// String renders the node in the parseable query dialect.
	String() string
	// Label is the short caption used in the GRADI representation.
	Label() string
}

// Cond is a simple selection predicate on one attribute.
type Cond struct {
	Attr  string // "Attr" or "Table.Attr"
	Op    Op
	Value dataset.Value   // operand for scalar ops
	Lo    dataset.Value   // BETWEEN lower bound
	Hi    dataset.Value   // BETWEEN upper bound
	List  []dataset.Value // IN list
	// DistFunc optionally names a registered distance function
	// ("Name = 'Smith' USING phonetic").
	DistFunc string
	W        float64
}

// Weight implements Expr; an unset weight reads as 1.
func (c *Cond) Weight() float64 {
	if c.W == 0 {
		return 1
	}
	return c.W
}

// SetWeight implements Expr.
func (c *Cond) SetWeight(w float64) { c.W = w }

// String implements Expr.
func (c *Cond) String() string {
	var b strings.Builder
	b.WriteString(c.Attr)
	switch c.Op {
	case OpBetween:
		fmt.Fprintf(&b, " BETWEEN %s AND %s", lit(c.Lo), lit(c.Hi))
	case OpIn:
		parts := make([]string, len(c.List))
		for i, v := range c.List {
			parts[i] = lit(v)
		}
		fmt.Fprintf(&b, " IN (%s)", strings.Join(parts, ", "))
	default:
		fmt.Fprintf(&b, " %s %s", c.Op, lit(c.Value))
	}
	if c.DistFunc != "" {
		fmt.Fprintf(&b, " USING %s", c.DistFunc)
	}
	if c.W != 0 && c.W != 1 {
		fmt.Fprintf(&b, " WEIGHT %g", c.W)
	}
	return b.String()
}

// Label implements Expr.
func (c *Cond) Label() string {
	s := c.String()
	if i := strings.Index(s, " WEIGHT "); i >= 0 {
		s = s[:i]
	}
	return s
}

// Holds evaluates the condition exactly — true or false, SQL's boolean
// semantics — on v, the row's value of the bound attribute, whose kind
// decides between numeric and string comparison. A null never holds.
// The binder has checked that the literals coerce to the kind. The
// engine's non-invertible negations and the boolean baseline both
// stand on it.
func (c *Cond) Holds(kind dataset.Kind, v dataset.Value) (bool, error) {
	if v.Null {
		return false, nil
	}
	if kind.IsNumeric() {
		f, _ := v.AsFloat()
		num := func(lit dataset.Value) float64 {
			x, _ := lit.AsFloat()
			return x
		}
		switch c.Op {
		case OpEq:
			return f == num(c.Value), nil
		case OpNe:
			return f != num(c.Value), nil
		case OpGt:
			return f > num(c.Value), nil
		case OpGe:
			return f >= num(c.Value), nil
		case OpLt:
			return f < num(c.Value), nil
		case OpLe:
			return f <= num(c.Value), nil
		case OpBetween:
			return f >= num(c.Lo) && f <= num(c.Hi), nil
		case OpIn:
			for _, lv := range c.List {
				if tv, ok := lv.AsFloat(); ok && f == tv {
					return true, nil
				}
			}
			return false, nil
		}
	}
	s, _ := v.AsString()
	switch c.Op {
	case OpEq:
		return s == c.Value.S, nil
	case OpNe:
		return s != c.Value.S, nil
	case OpGt:
		return s > c.Value.S, nil
	case OpGe:
		return s >= c.Value.S, nil
	case OpLt:
		return s < c.Value.S, nil
	case OpLe:
		return s <= c.Value.S, nil
	case OpBetween:
		return s >= c.Lo.S && s <= c.Hi.S, nil
	case OpIn:
		for _, lv := range c.List {
			if s == lv.S {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("query: cannot boolean-evaluate operator %s", c.Op)
}

// BoolOp is the connective of a BoolExpr.
type BoolOp int

const (
	// And combines children with the weighted arithmetic mean.
	And BoolOp = iota
	// Or combines children with the weighted geometric mean.
	Or
)

// String implements fmt.Stringer.
func (b BoolOp) String() string {
	if b == Or {
		return "OR"
	}
	return "AND"
}

// BoolExpr combines children with AND or OR.
type BoolExpr struct {
	Op       BoolOp
	Children []Expr
	W        float64
}

// Weight implements Expr.
func (b *BoolExpr) Weight() float64 {
	if b.W == 0 {
		return 1
	}
	return b.W
}

// SetWeight implements Expr.
func (b *BoolExpr) SetWeight(w float64) { b.W = w }

// String implements Expr.
func (b *BoolExpr) String() string {
	parts := make([]string, len(b.Children))
	for i, c := range b.Children {
		s := c.String()
		if child, ok := c.(*BoolExpr); ok && child.Op != b.Op {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	s := strings.Join(parts, " "+b.Op.String()+" ")
	if b.W != 0 && b.W != 1 {
		s = "(" + s + ") WEIGHT " + fmt.Sprintf("%g", b.W)
	}
	return s
}

// Label implements Expr.
func (b *BoolExpr) Label() string { return b.Op.String() }

// Not negates a child expression.
type Not struct {
	Child Expr
	W     float64
}

// Weight implements Expr.
func (n *Not) Weight() float64 {
	if n.W == 0 {
		return 1
	}
	return n.W
}

// SetWeight implements Expr.
func (n *Not) SetWeight(w float64) { n.W = w }

// String implements Expr.
func (n *Not) String() string { return "NOT (" + n.Child.String() + ")" }

// Label implements Expr.
func (n *Not) Label() string { return "NOT" }

// JoinExpr references a catalog connection — an approximate join
// (section 4.4). The optional parameter overrides the connection's
// default (e.g. `with-time-diff(120)`).
type JoinExpr struct {
	Connection string
	Param      float64
	HasParam   bool
	W          float64
}

// Weight implements Expr.
func (j *JoinExpr) Weight() float64 {
	if j.W == 0 {
		return 1
	}
	return j.W
}

// SetWeight implements Expr.
func (j *JoinExpr) SetWeight(w float64) { j.W = w }

// String implements Expr.
func (j *JoinExpr) String() string {
	s := "CONNECT " + j.Connection
	if j.HasParam {
		s += fmt.Sprintf("(%g)", j.Param)
	}
	if j.W != 0 && j.W != 1 {
		s += fmt.Sprintf(" WEIGHT %g", j.W)
	}
	return s
}

// Label implements Expr.
func (j *JoinExpr) Label() string {
	s := "CONNECT " + j.Connection
	if j.HasParam {
		s += fmt.Sprintf("(%g)", j.Param)
	}
	return s
}

// SubqueryMode distinguishes the nesting operators.
type SubqueryMode int

const (
	// Exists scores the minimum distance over the inner relation
	// (section 4.4).
	Exists SubqueryMode = iota
	// NotExists is uncolorable (negation).
	NotExists
	// InQuery is `attr IN (SELECT ...)`.
	InQuery
	// NotInQuery is uncolorable (negation).
	NotInQuery
)

// SubqueryExpr is a nested query connected with EXISTS or IN.
type SubqueryExpr struct {
	Mode SubqueryMode
	Attr string // outer attribute for InQuery modes
	Sub  *Query
	W    float64
}

// Weight implements Expr.
func (s *SubqueryExpr) Weight() float64 {
	if s.W == 0 {
		return 1
	}
	return s.W
}

// SetWeight implements Expr.
func (s *SubqueryExpr) SetWeight(w float64) { s.W = w }

// String implements Expr.
func (s *SubqueryExpr) String() string {
	switch s.Mode {
	case Exists:
		return "EXISTS (" + s.Sub.String() + ")"
	case NotExists:
		return "NOT EXISTS (" + s.Sub.String() + ")"
	case InQuery:
		return s.Attr + " IN (" + s.Sub.String() + ")"
	default:
		return s.Attr + " NOT IN (" + s.Sub.String() + ")"
	}
}

// Label implements Expr.
func (s *SubqueryExpr) Label() string {
	switch s.Mode {
	case Exists:
		return "EXISTS subquery"
	case NotExists:
		return "NOT EXISTS subquery"
	case InQuery:
		return s.Attr + " IN subquery"
	default:
		return s.Attr + " NOT IN subquery"
	}
}

// Agg enumerates the aggregate operators of the result list tool box.
type Agg int

const (
	AggNone Agg = iota
	AggAvg
	AggSum
	AggMax
	AggMin
	AggCount
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggAvg:
		return "AVG"
	case AggSum:
		return "SUM"
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggCount:
		return "COUNT"
	default:
		return ""
	}
}

// SelectItem is one entry of the result list.
type SelectItem struct {
	Agg  Agg
	Attr string // "*" allowed with AggCount or alone
}

// String implements fmt.Stringer.
func (s SelectItem) String() string {
	if s.Agg == AggNone {
		return s.Attr
	}
	return fmt.Sprintf("%s(%s)", s.Agg, s.Attr)
}

// Query is a full query: result list, table list and condition tree.
type Query struct {
	Select []SelectItem
	From   []string
	Where  Expr // nil means no condition
}

// String renders the query in the parseable dialect.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Select))
		for i, s := range q.Select {
			parts[i] = s.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.From, ", "))
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	return b.String()
}

// lit renders a literal value in the dialect (strings quoted, times as
// quoted RFC 3339).
func lit(v dataset.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case dataset.KindString, dataset.KindOrdinal, dataset.KindNominal:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case dataset.KindTime:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}

// Predicates returns the top-level selection predicates of an
// expression: the children of the root boolean operator, or the node
// itself when the root is a leaf. These are the parts that get their own
// visualization windows ("we generate a separate window for each
// selection predicate of the query", section 3).
func Predicates(e Expr) []Expr {
	if b, ok := e.(*BoolExpr); ok {
		return b.Children
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// Walk visits every node of the expression tree in depth-first preorder,
// including subquery conditions.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *BoolExpr:
		for _, c := range n.Children {
			Walk(c, visit)
		}
	case *Not:
		Walk(n.Child, visit)
	case *SubqueryExpr:
		if n.Sub != nil {
			Walk(n.Sub.Where, visit)
		}
	}
}

package query

import (
	"fmt"
	"strings"
)

// Gradi renders the GRADI query-representation window (figure 3) as
// ASCII art: a tree whose leaves are the selection predicate boxes.
// Simple conditions render in single boxes [..], subqueries in double
// boxes [[..]], matching "simple conditions by a single, subqueries by a
// double box". The representation "is available to the user during the
// whole process of data mining to provide an overview of the actual
// query" (section 4.4).
func Gradi(q *Query) string {
	var b strings.Builder
	b.WriteString("Query Representation\n")
	b.WriteString("====================\n")
	fmt.Fprintf(&b, "Result List: ")
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Select))
		for i, s := range q.Select {
			parts[i] = s.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "From: %s\n", strings.Join(q.From, ", "))
	if q.Where == nil {
		b.WriteString("(no condition)\n")
		return b.String()
	}
	renderNode(&b, q.Where, "", true, true)
	return b.String()
}

func renderNode(b *strings.Builder, e Expr, prefix string, isLast, isRoot bool) {
	connector := "├── "
	childPrefix := prefix + "│   "
	if isLast {
		connector = "└── "
		childPrefix = prefix + "    "
	}
	if isRoot {
		connector = ""
		childPrefix = ""
	}
	b.WriteString(prefix)
	b.WriteString(connector)
	b.WriteString(boxLabel(e))
	if w := e.Weight(); w != 1 {
		fmt.Fprintf(b, "  (weight %g)", w)
	}
	b.WriteByte('\n')
	switch n := e.(type) {
	case *BoolExpr:
		for i, c := range n.Children {
			renderNode(b, c, childPrefix, i == len(n.Children)-1, false)
		}
	case *Not:
		renderNode(b, n.Child, childPrefix, true, false)
	case *SubqueryExpr:
		// Show the nested query's own representation indented beneath
		// the double box.
		sub := Gradi(n.Sub)
		for _, line := range strings.Split(strings.TrimRight(sub, "\n"), "\n") {
			b.WriteString(childPrefix)
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
}

func boxLabel(e Expr) string {
	switch n := e.(type) {
	case *Cond:
		return "[" + n.Label() + "]"
	case *SubqueryExpr:
		return "[[" + n.Label() + "]]"
	case *JoinExpr:
		return "[" + n.Label() + "]"
	case *Not:
		return "NOT"
	case *BoolExpr:
		return n.Op.String()
	default:
		return e.Label()
	}
}

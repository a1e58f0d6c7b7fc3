package core

import (
	"fmt"
	"strings"

	"repro/internal/relevance"
)

// runKeys is the single point where structural cache keys are built:
// every leaf's and every interior node's (relevance.Node.Key; the
// evaluator only reads them). A RunCache's pins, the SharedCache and the
// remote tier all key by these strings, and a key names exactly one
// vector: everything its computation depends on is in it. Every key
// embeds the item-space fingerprint — table identities, row counts and
// the catalog's segment epoch (spaceSig) — a leaf's directly, an
// interior node's through its leaves, so caches shared across catalog
// reloads or regenerated segment files can never serve vectors computed
// over different data. No leaf key depends on the arrangement: a spiral
// and a 2D session share their condition leaves, and the 2D placement
// adds its axes' signed distances under keys of their own (axis).
type runKeys struct {
	// space is the item-space fingerprint of the run (spaceSig).
	space string
	// kernel fixes the evaluation options an interior node's raw
	// combined vector depends on (Engine.runKeys); spaceSig fixes n.
	kernel string
}

// runKeys returns the keys of a run over space.
func (e *Engine) runKeys(space *itemSpace) runKeys {
	o := e.opt
	return runKeys{space: e.spaceSig(space),
		kernel: fmt.Sprintf("m%d|a%d|p%x|b%d|nn%v", o.Mode, o.And, o.LpP, o.GridW*o.GridH, o.NaiveNormalize)}
}

// cond keys a simple-condition leaf: bound table.attr plus the
// condition label (operator, literals, distance function — Label
// excludes the weighting factor by construction, so weight-only reruns
// hit unconditionally).
func (k runKeys) cond(qualified, label string) string {
	return "C|" + k.space + "|" + qualified + "|" + label
}

// join keys a join-connection leaf; negation is part of the identity
// (the negated vector differs, while the label does not).
func (k runKeys) join(label string, negated bool) string {
	return fmt.Sprintf("J|%s|%s|neg=%v", k.space, label, negated)
}

// boolean keys an exact-boolean fallback leaf (the label already
// carries the NOT prefix when negated).
func (k runKeys) boolean(label string) string {
	return "B|" + k.space + "|" + label
}

// subquery keys a subquery leaf on the full rendered subquery (String
// keeps inner weighting factors, which DO change the inner combined
// distances and hence this leaf's vector) plus the engine options the
// inner evaluation depends on (budget and combine mode), so a cache
// shared across differently-configured engines never serves a stale
// vector.
func (k runKeys) subquery(budget int, mode relevance.CombineMode, rendered string, negated bool) string {
	return fmt.Sprintf("S|%s|%d|%d|%s|neg=%v", k.space, budget, mode, rendered, negated)
}

// axis keys the signed distances of a 2D axis condition whose leaf is
// keyed leaf: the leaf's key pins every input, the arrangement is the
// entry's own.
func (k runKeys) axis(leaf string) string { return "A|" + leaf }

// interior keys an AND/OR node's raw combined vector from the run's
// kernel options, the operator, and each child's key and weight (a
// child's weight fixes its keep count and its combination coefficient).
// The children's keys pin, down to the leaves, the item space, the
// segment epoch, every literal, negation and distance function, so a
// De-Morganed subtree never aliases its un-negated twin although their
// labels are equal. The node's own weight is left out: it enters only
// the node's own normalization range, not its raw vector, so a drag of
// it — or of a sibling — reuses the entry. Children are keyed before
// their parent.
func (k runKeys) interior(n *relevance.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s|%d", interiorTag, k.kernel, n.Op)
	for _, ch := range n.Children {
		fmt.Fprintf(&b, "|%d:%s|w%x", len(ch.Key), ch.Key, ch.EffWeight())
	}
	return b.String()
}

// interiorTag starts every interior key and no other.
const interiorTag = "I|"

// isInterior reports whether key names an interior node's raw combined
// vector.
func isInterior(key string) bool { return strings.HasPrefix(key, interiorTag) }
